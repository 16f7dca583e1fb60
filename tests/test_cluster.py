"""Tests for the contention-aware multi-host cluster scheduler."""

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterSimulator,
    SNAPSHOT_TIERS,
)
from repro.cluster.placement import (
    HostView,
    LeastLoaded,
    RoundRobin,
    SnapshotLocality,
    make_placement,
)
from repro.core.policies import Policy
from repro.fleet.costs import CostModel
from repro.fleet.scheduler import StartKind
from repro.fleet.workload import Arrival, ArrivalTrace, FleetFunction
from repro.metrics.tracing import Tracer

SECOND = 1_000_000.0


def fleet_of(*names):
    return [
        FleetFunction(
            name=name, profile_name=name.split("@")[0],
            mean_interarrival_us=SECOND,
        )
        for name in names
    ]


def trace_of(*arrivals):
    items = sorted(
        (Arrival(time_us=t, function=f) for t, f in arrivals),
        key=lambda a: (a.time_us, a.function),
    )
    return ArrivalTrace(
        arrivals=items, duration_us=max(a.time_us for a in items) + 1
    )


def burst(name, count):
    """``count`` distinct clones of ``name`` all arriving at t=0."""
    fleet = fleet_of(*(f"{name}@c{i}" for i in range(count)))
    return fleet, trace_of(*((0.0, f.name) for f in fleet))


# -- parity with the cost table ---------------------------------------


def test_uncontended_single_host_matches_cost_table():
    """One host, arrivals spaced apart: the page-level cluster must
    reproduce the cost-table latencies (cold / snapshot / warm) within
    1%, because the cost model measures exactly this situation. The
    same trace served from the table (``costs=``) is the other
    fidelity: identical start kinds, each latency exactly its table
    entry and within 1% of the page-level one."""
    costs = CostModel().costs("hello-world", Policy.FAASNAP)
    config = ClusterConfig(
        num_hosts=1,
        restore_policy=Policy.FAASNAP,
        keep_alive_ttl_us=18 * SECOND,
    )
    fleet = fleet_of("hello-world")
    trace = trace_of(
        (0.0, "hello-world"),
        (30 * SECOND, "hello-world"),
        (45 * SECOND, "hello-world"),
    )
    report = ClusterSimulator(fleet, config).run(trace)
    table = ClusterSimulator(
        fleet, config, costs={"hello-world": costs}
    ).run(trace)
    kinds = [s.kind for s in report.served]
    assert kinds == [StartKind.COLD, StartKind.SNAPSHOT, StartKind.WARM]
    assert [s.kind for s in table.served] == kinds
    expected = [costs.cold_us, costs.snapshot_us, costs.warm_us]
    for served, charged, want in zip(report.served, table.served, expected):
        assert served.latency_us == pytest.approx(want, rel=0.01)
        assert charged.latency_us == want
        assert charged.latency_us == pytest.approx(
            served.latency_us, rel=0.01
        )


def test_cost_table_refuses_armed_runs_and_missing_entries():
    """The table holds one restore policy and no snapshot files, so a
    table run cannot arm faults, recovery or durability; and every
    fleet function needs an entry."""
    from repro.faults import (
        DurabilityPolicy,
        FaultPlan,
        RecoveryPolicy,
        RetryPolicy,
    )

    costs = {"json": CostModel().costs("json", Policy.FAASNAP)}
    fleet, trace = fleet_of("json"), trace_of((0.0, "json"))
    for config in (
        ClusterConfig(recovery=RecoveryPolicy(retry=RetryPolicy(enabled=True))),
        ClusterConfig(durability=DurabilityPolicy(enabled=True)),
    ):
        with pytest.raises(ValueError, match="cost-table"):
            ClusterSimulator(fleet, config, costs=costs).run(trace)
    with pytest.raises(ValueError, match="cost-table"):
        ClusterSimulator(fleet, costs=costs).run(
            trace, fault_plan=FaultPlan.empty()
        )
    with pytest.raises(ValueError, match="cost-table"):  # a live ``arm``
        ClusterSimulator(fleet, costs=costs).arm_fault_plan(FaultPlan.empty())
    with pytest.raises(ValueError, match="no entry for pyaes"):
        ClusterSimulator(fleet_of("json", "pyaes"), costs=costs)


# -- emergent contention ----------------------------------------------


def test_concurrent_restores_contend_on_one_host():
    """Eight simultaneous snapshot starts on one NVMe host queue on
    its device: mean restore latency rises well above uncontended."""
    config = ClusterConfig(num_hosts=1, assume_snapshots_exist=True)

    single_fleet, single_trace = burst("json", 1)
    baseline = ClusterSimulator(single_fleet, config).run(single_trace)
    base_us = baseline.mean_latency_us()

    fleet, trace = burst("json", 8)
    report = ClusterSimulator(fleet, config).run(trace)
    assert all(s.kind is StartKind.SNAPSHOT for s in report.served)
    assert all(s.host == "host0" for s in report.served)
    assert report.mean_latency_us() > 1.1 * base_us


def test_spreading_over_hosts_relieves_contention():
    fleet, trace = burst("json", 8)
    one = ClusterSimulator(
        fleet, ClusterConfig(num_hosts=1, assume_snapshots_exist=True)
    ).run(trace)
    four = ClusterSimulator(
        fleet,
        ClusterConfig(
            num_hosts=4,
            placement="least-loaded",
            assume_snapshots_exist=True,
        ),
    ).run(trace)
    assert four.mean_latency_us() < one.mean_latency_us()
    # Same-instant arrivals must see each other's placements: the
    # burst spreads 2/2/2/2, not 8 on host0.
    assert [four.count_on(f"host{i}") for i in range(4)] == [2, 2, 2, 2]


def test_shared_ebs_tier_slower_than_local_nvme():
    """Concurrent restores across hosts: per-host NVMe devices stay
    uncontended, one shared EBS volume serialises them (Fig. 11)."""
    fleet, trace = burst("json", 4)

    def run_tier(tier):
        config = ClusterConfig(
            num_hosts=2,
            placement="least-loaded",
            snapshot_tier=tier,
            assume_snapshots_exist=True,
        )
        return ClusterSimulator(fleet, config).run(trace)

    nvme = run_tier("local-nvme")
    ebs = run_tier("shared-ebs")
    assert ebs.snapshot_tier == "shared-ebs"
    assert ebs.mean_latency_us() > nvme.mean_latency_us()


def test_warm_page_cache_reuse_between_restores():
    """With the cold-cache methodology disabled, a back-to-back
    restore of the same function hits still-resident pages and gets
    faster — emergent from the shared per-host page cache."""
    fleet = fleet_of("json")
    trace = trace_of((0.0, "json"), (5 * SECOND, "json"))

    def run_mode(cold_cache):
        config = ClusterConfig(
            num_hosts=1,
            keep_alive_ttl_us=0.0,  # force both starts to restore
            assume_snapshots_exist=True,
            cold_cache_between_runs=cold_cache,
        )
        return ClusterSimulator(fleet, config).run(trace)

    cold = run_mode(True)
    assert [s.kind for s in cold.served] == [StartKind.SNAPSHOT] * 2
    assert cold.served[1].latency_us == pytest.approx(
        cold.served[0].latency_us, rel=0.01
    )
    reuse = run_mode(False)
    # The second restore's reads all hit the page cache (device
    # traffic roughly halves) and its latency strictly drops; the gain
    # is a few percent because fault handling and guest compute — not
    # disk — dominate an uncontended NVMe restore.
    assert reuse.served[1].latency_us < 0.99 * reuse.served[0].latency_us
    assert (
        reuse.host_stats["host0"].device_bytes_read
        < 0.6 * cold.host_stats["host0"].device_bytes_read
    )


# -- scheduling semantics ---------------------------------------------


def test_admission_limit_queues_excess_arrivals():
    fleet, trace = burst("json", 2)
    config = ClusterConfig(
        num_hosts=1,
        max_concurrent_per_host=1,
        assume_snapshots_exist=True,
    )
    report = ClusterSimulator(fleet, config).run(trace)
    first, second = sorted(s.latency_us for s in report.served)
    # The second invocation waits for the first to finish.
    assert second > 1.9 * first
    assert report.host_stats["host0"].admission_wait_us > 0


def test_snapshots_disabled_every_start_is_cold():
    fleet = fleet_of("hello-world")
    config = ClusterConfig(
        num_hosts=1, snapshots_enabled=False, keep_alive_ttl_us=0.0
    )
    report = ClusterSimulator(fleet, config).run(
        trace_of((0.0, "hello-world"), (30 * SECOND, "hello-world"))
    )
    assert [s.kind for s in report.served] == [StartKind.COLD] * 2


def test_report_attributes_hosts_round_robin():
    fleet, trace = burst("hello-world", 4)
    config = ClusterConfig(
        num_hosts=2, placement="round-robin", assume_snapshots_exist=True
    )
    report = ClusterSimulator(fleet, config).run(trace)
    assert report.count_on("host0") == 2
    assert report.count_on("host1") == 2
    stats = report.host_stats
    assert stats["host0"].snapshot_starts == 2
    assert stats["host0"].device_requests > 0


def test_cluster_config_validation():
    with pytest.raises(ValueError):
        ClusterConfig(num_hosts=0)
    with pytest.raises(ValueError):
        ClusterConfig(snapshot_tier="floppy")
    with pytest.raises(ValueError):
        ClusterConfig(max_concurrent_per_host=0)
    with pytest.raises(ValueError):
        ClusterSimulator(fleet_of("json", "json"), ClusterConfig())
    assert set(SNAPSHOT_TIERS) == {"local-nvme", "shared-ebs"}


# -- determinism ------------------------------------------------------


def test_repeated_runs_are_identical():
    fleet, trace = burst("json", 4)
    config = ClusterConfig(
        num_hosts=2, placement="least-loaded", assume_snapshots_exist=True
    )
    first = ClusterSimulator(fleet, config).run(trace)
    second = ClusterSimulator(fleet, config).run(trace)
    assert first.served == second.served
    assert first.host_stats == second.host_stats
    assert first.prep_us == second.prep_us


def test_fig10_cluster_results_independent_of_jobs():
    from repro.experiments import fig10_bursty

    kwargs = dict(parallelisms=(1, 4), host_counts=(1,))
    serial = fig10_bursty.run_cluster(jobs=1, **kwargs)
    parallel = fig10_bursty.run_cluster(jobs=2, **kwargs)
    assert serial.points == parallel.points


# -- tracing ----------------------------------------------------------


def test_cluster_trace_spans_tagged_with_host():
    fleet, trace = burst("json", 4)
    config = ClusterConfig(
        num_hosts=2, placement="round-robin", assume_snapshots_exist=True
    )
    tracer = Tracer()
    ClusterSimulator(fleet, config).run(trace, tracer=tracer)
    assert len(tracer.roots) == 4
    hosts = {span.tags["host"] for span in tracer.roots}
    assert hosts == {"host0", "host1"}


@pytest.mark.parametrize(
    "policy, ttl_us",
    [
        # Cold, then snapshot restores: the cold start's boot and
        # REAP's fetch-in-set-up are both in the tree.
        (Policy.REAP, 0.0),
        # Cold, then warm starts, with FaaSnap's concurrent loader.
        (Policy.FAASNAP, 600 * SECOND),
    ],
    ids=["reap-no-keepalive", "faasnap-keepalive"],
)
def test_phase_records_are_the_span_trees_flattened(policy, ttl_us):
    from repro.metrics.causal import CausalTracer

    fleet = fleet_of("json")
    config = ClusterConfig(
        num_hosts=1, restore_policy=policy, keep_alive_ttl_us=ttl_us
    )
    sim = ClusterSimulator(fleet, config)
    tracer, causal = Tracer(), CausalTracer()
    report = sim.run(
        trace_of(*((i * 30 * SECOND, "json") for i in range(4))),
        tracer=tracer,
        causal=causal,
    )
    epoch = sim._obs_epoch_us
    zipkin = sorted(
        [
            (span.name, depth, span.duration_us, span.start_us - epoch)
            for span, depth in root.walk()
        ]
        for root in tracer.roots
    )
    phases = {}
    for inv in causal.document()["invocations"]:
        phases[(inv["arrival_us"], inv["function"])] = [
            (
                e["detail"]["name"],
                e["detail"]["depth"],
                e["detail"]["duration_us"],
                e["t_us"],
            )
            for e in inv["events"]
            if e["kind"] == "phase"
        ]
    assert sorted(phases.values()) == zipkin

    # No admission wait: a cold start's root spans its whole latency,
    # boot included.
    labels = {
        StartKind.COLD: "cold",
        StartKind.WARM: "warm",
        StartKind.SNAPSHOT: policy.value,
    }
    assert {s.kind for s in report.served} >= {StartKind.COLD}
    for served in report.served:
        tree = phases[(served.time_us, served.function)]
        name, depth, duration_us, _ = tree[0]
        assert (name, depth) == (f"json [{labels[served.kind]}]", 0)
        if served.kind is StartKind.COLD:
            assert duration_us == pytest.approx(served.latency_us, rel=1e-12)
            assert tree[1][:2] == ("cold boot", 1)


# -- placement policies (unit, on stub views) -------------------------


class StubHost(HostView):
    def __init__(self, index, load=0, warm=(), snapshots=()):
        self.index = index
        self._load = load
        self._warm = set(warm)
        self._snapshots = set(snapshots)

    @property
    def load(self):
        return self._load

    def has_idle_warm(self, function):
        return function in self._warm

    def has_snapshot_for(self, function):
        return function in self._snapshots


def test_round_robin_rotates():
    hosts = [StubHost(i) for i in range(3)]
    policy = RoundRobin()
    assert [policy.choose(hosts, "f") for _ in range(5)] == [0, 1, 2, 0, 1]


def test_least_loaded_breaks_ties_on_lowest_index():
    hosts = [StubHost(0, load=2), StubHost(1, load=1), StubHost(2, load=1)]
    assert LeastLoaded().choose(hosts, "f") == 1


def test_locality_prefers_warm_then_snapshot_then_load():
    policy = SnapshotLocality()
    hosts = [
        StubHost(0, load=0),
        StubHost(1, load=5, snapshots=("f",)),
        StubHost(2, load=9, warm=("f",), snapshots=("f",)),
    ]
    # An idle warm VM beats everything, even on the busiest host.
    assert policy.choose(hosts, "f") == 2
    # Without a warm VM, a host holding the snapshot wins.
    hosts[2]._warm.clear()
    assert policy.choose(hosts, "f") == 1
    # Unknown function: plain least-loaded.
    assert policy.choose(hosts, "g") == 0


def test_make_placement_rejects_unknown_name():
    with pytest.raises(ValueError):
        make_placement("random")


def test_pick_failover_prefers_healthy_then_any_live_host():
    from repro.cluster.placement import StaticHostView, pick_failover

    views = [StaticHostView(index=i) for i in range(4)]
    views[1].healthy = False
    views[2].healthy = False
    views[2].crashed = True
    # Healthy candidates only: host3 (host0 is the one being left).
    assert pick_failover(views, LeastLoaded(), views[0], "f") is views[3]
    # No healthy alternative: fall back to the drained-but-live host.
    views[3].crashed = True
    views[3].healthy = False
    assert pick_failover(views, LeastLoaded(), views[0], "f") is views[1]
    # Nothing left alive.
    views[1].crashed = True
    assert pick_failover(views, LeastLoaded(), views[0], "f") is None


# -- the unarmed serve path ---------------------------------------------
#
# An unarmed run serves each invocation as one inline attempt. These
# pin its event schedule and its causal vocabulary, which must equal
# the armed path's on a fault-free run.

def _unarmed_pin_run(**run_kwargs):
    from repro.fleet import generate_arrivals, synthesize_fleet

    fleet = synthesize_fleet(4, seed=5, profile_names=("json", "pyaes"))
    trace = generate_arrivals(fleet, 0.25 * 3600 * SECOND, seed=5)
    config = ClusterConfig(num_hosts=1, seed=3, max_concurrent_per_host=1)
    sim = ClusterSimulator(fleet, config)
    return sim, sim.run(trace, **run_kwargs)


def test_unarmed_run_keeps_its_event_schedule():
    sim, report = _unarmed_pin_run()
    assert sim._armed is False
    assert len(report.served) == 46
    # Recorded before the unarmed serve became an inline attempt.
    assert sim.env.events_processed == 56526
    assert round(sum(s.latency_us for s in report.served), 3) == (
        42459130.719
    )
    assert report.host_stats["host0"].admission_wait_us == (
        1202680.7166680694
    )


def test_unarmed_causal_vocabulary_matches_armed():
    from repro.faults import FaultPlan
    from repro.metrics.causal import CausalTracer

    def kinds_and_latencies(**run_kwargs):
        causal = CausalTracer()
        _, report = _unarmed_pin_run(causal=causal, **run_kwargs)
        kinds = [
            [e["kind"] for e in inv["events"] if e["kind"] != "phase"]
            for inv in causal.document()["invocations"]
        ]
        return kinds, [s.latency_us for s in report.served]

    unarmed, unarmed_latencies = kinds_and_latencies()
    armed, armed_latencies = kinds_and_latencies(fault_plan=FaultPlan.empty())
    assert unarmed == armed
    assert unarmed_latencies == armed_latencies
    assert {tuple(k) for k in unarmed} == {
        ("dispatch", "attempt", "admitted", "start", "attempt-ok", "outcome")
    }
