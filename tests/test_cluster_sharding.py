"""Sharded cluster execution: the determinism contract.

The golden-parity tests here are the ISSUE's acceptance criteria:
``shards=1`` and ``shards=N`` must produce bit-identical outcome
streams, latency checksums, and merged telemetry for the same
(trace, seed, fault plan) — including an armed-recovery run — and
nearest-rank percentiles from shard-merged histograms must match the
single-protocol run exactly.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterConfig,
    ShardedClusterSimulator,
    TIER_SHARED_EBS,
    partition_hosts,
    plan_for_host,
)
from repro.cluster.placement import (
    LeastLoaded,
    SnapshotLocality,
    StaticHostView,
    choose_healthy,
)
from repro.experiments.runner import parallel_map
from repro.faults import (
    DeviceFault,
    FaultPlan,
    HostCrash,
    RecoveryPolicy,
    RetryBudget,
    RetryPolicy,
    SnapshotCorruption,
    rebalance_tokens,
)
from repro.fleet.workload import Arrival, ArrivalTrace, FleetFunction
from repro.metrics.stats import Histogram
from repro.sim import Environment, SimulationError

import pytest

SECOND = 1_000_000.0


def fleet_of(*names):
    return [
        FleetFunction(
            name=name, profile_name="json", mean_interarrival_us=SECOND
        )
        for name in names
    ]


def burst_trace(count, spacing_us=120_000.0, functions=("f0", "f1", "f2")):
    arrivals = [
        Arrival(
            time_us=i * spacing_us,
            function=functions[i % len(functions)],
        )
        for i in range(count)
    ]
    return ArrivalTrace(
        arrivals=arrivals, duration_us=count * spacing_us + 1
    )


def served_tuples(report):
    return [
        (s.time_us, s.function, s.kind, s.latency_us, s.host,
         s.outcome, s.attempts)
        for s in report.served
    ]


def latency_checksum(report):
    return sum(s.latency_us for s in report.served)


def run_sharded(fleet, config, trace, shards, fault_plan=None):
    sim = ShardedClusterSimulator(fleet, config, shards=shards)
    report = sim.run(trace, fault_plan=fault_plan)
    return sim, report


# -- golden parity -----------------------------------------------------


def test_golden_parity_unarmed():
    """shards=1 vs shards=2 vs shards=4: bit-identical streams,
    checksum, and merged telemetry on a fault-free run."""
    fleet = fleet_of("f0", "f1", "f2")
    trace = burst_trace(18)
    config = ClusterConfig(num_hosts=4, placement="least-loaded", seed=3)
    sim1, r1 = run_sharded(fleet, config, trace, shards=1)
    base = served_tuples(r1)
    assert len(base) == 18
    for shards in (2, 4):
        simn, rn = run_sharded(fleet, config, trace, shards=shards)
        assert served_tuples(rn) == base
        assert latency_checksum(rn) == latency_checksum(r1)
        assert simn.merged_metrics == sim1.merged_metrics
        assert rn.prep_us == r1.prep_us
        assert rn.evictions == r1.evictions


ARMED_PLAN = FaultPlan(
    device_faults=(
        DeviceFault(
            scope="shared",
            start_us=0.4 * SECOND,
            duration_us=1.2 * SECOND,
            bandwidth_factor=0.05,
            latency_factor=10.0,
            error_rate=0.4,
        ),
    ),
    host_crashes=(
        HostCrash(
            host="host3",
            at_us=0.6 * SECOND,
            reboot_after_us=1.0 * SECOND,
        ),
    ),
    corruptions=(
        SnapshotCorruption(host="host1", function="f1", at_us=0.0),
    ),
)

ARMED_RECOVERY = RecoveryPolicy.full(
    deadline_us=20 * SECOND, max_queue_depth=32, degraded_queue_depth=8
)


def test_golden_parity_armed_recovery():
    """The acceptance criterion's armed run: full recovery policy,
    shared-EBS degradation, a host crash, and a snapshot corruption —
    still bit-identical across shard counts."""
    fleet = fleet_of("f0", "f1", "f2")
    trace = burst_trace(24, spacing_us=100_000.0)
    config = ClusterConfig(
        num_hosts=4,
        placement="least-loaded",
        seed=11,
        snapshot_tier=TIER_SHARED_EBS,
        recovery=ARMED_RECOVERY,
    )
    sim1, r1 = run_sharded(fleet, config, trace, 1, fault_plan=ARMED_PLAN)
    base = served_tuples(r1)
    assert len(base) == 24
    # The plan must actually bite for this test to mean anything.
    outcomes = {s.outcome.value for s in r1.served}
    assert outcomes != {"ok"}
    for shards in (2, 4):
        simn, rn = run_sharded(
            fleet, config, trace, shards, fault_plan=ARMED_PLAN
        )
        assert served_tuples(rn) == base
        assert latency_checksum(rn) == latency_checksum(r1)
        assert simn.merged_metrics == sim1.merged_metrics


def test_sharded_run_is_repeatable():
    fleet = fleet_of("f0", "f1")
    trace = burst_trace(10, functions=("f0", "f1"))
    config = ClusterConfig(num_hosts=2, seed=9)
    _, a = run_sharded(fleet, config, trace, 2)
    _, b = run_sharded(fleet, config, trace, 2)
    assert served_tuples(a) == served_tuples(b)


# -- percentile merging (report layer) ---------------------------------


def test_percentile_merge_matches_single_protocol_run():
    """Nearest-rank percentiles from the shard-merged latency
    histograms equal the single-protocol run's, bucket for bucket and
    percentile for percentile — and the report's own nearest-rank
    percentiles agree across shard counts too."""
    fleet = fleet_of("f0", "f1", "f2")
    trace = burst_trace(20)
    config = ClusterConfig(num_hosts=4, placement="locality", seed=21)
    sim1, r1 = run_sharded(fleet, config, trace, 1)
    sim4, r4 = run_sharded(fleet, config, trace, 4)
    h1, h4 = sim1.latency_histogram, sim4.latency_histogram
    assert isinstance(h1, Histogram)
    assert h1.edges == h4.edges
    assert h1.counts == h4.counts
    assert h1.total == len(r1.served)
    for p in (50, 90, 95, 99, 100):
        assert h1.percentile(p) == h4.percentile(p)
        assert r1.latency_percentile(p) == r4.latency_percentile(p)
    # The merged-snapshot path carries the same histogram.
    snap1 = sim1.merged_metrics["histograms"]["cluster.latency_us"]
    snap4 = sim4.merged_metrics["histograms"]["cluster.latency_us"]
    assert snap1 == snap4
    assert snap1["counts"] == h1.counts


# -- cross-shard fault interactions ------------------------------------


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_cross_shard_fault_parity_over_seeds(seed):
    """A shared-EBS degradation window plus a crash of a host that
    lives in a *different* shard than most serving traffic must not
    disturb parity: with 4 hosts and 4 shards, host0 (the locality
    target) and host3 (the crash victim) are in different shards by
    construction of ``partition_hosts``."""
    fleet = fleet_of("f0", "f1")
    trace = burst_trace(
        12, spacing_us=150_000.0, functions=("f0", "f1")
    )
    config = ClusterConfig(
        num_hosts=4,
        placement="locality",
        seed=seed,
        snapshot_tier=TIER_SHARED_EBS,
        recovery=RecoveryPolicy(
            retry=RetryPolicy(enabled=True, max_attempts=3)
        ),
    )
    plan = FaultPlan(
        device_faults=(
            DeviceFault(
                scope="shared",
                start_us=0.2 * SECOND,
                duration_us=1.0 * SECOND,
                bandwidth_factor=0.1,
                error_rate=0.3,
            ),
        ),
        host_crashes=(
            HostCrash(host="host3", at_us=0.5 * SECOND),
        ),
    )
    groups = partition_hosts(4, 4)
    assert [0] in groups and [3] in groups  # genuinely cross-shard
    _, r1 = run_sharded(fleet, config, trace, 1, fault_plan=plan)
    _, r4 = run_sharded(fleet, config, trace, 4, fault_plan=plan)
    assert served_tuples(r4) == served_tuples(r1)


# -- protocol pieces ---------------------------------------------------


def test_partition_hosts_shapes():
    assert partition_hosts(4, 2) == [[0, 1], [2, 3]]
    assert partition_hosts(5, 2) == [[0, 1, 2], [3, 4]]
    assert partition_hosts(2, 8) == [[0], [1]]
    flat = [i for g in partition_hosts(64, 7) for i in g]
    assert flat == list(range(64))
    with pytest.raises(ValueError):
        partition_hosts(0, 1)


def test_plan_for_host_filters_scopes():
    plan = ARMED_PLAN
    sub = plan_for_host(plan, "host3")
    assert len(sub.device_faults) == 1  # shared scope applies everywhere
    assert len(sub.host_crashes) == 1
    assert len(sub.corruptions) == 0
    other = plan_for_host(plan, "host1")
    assert len(other.host_crashes) == 0
    assert len(other.corruptions) == 1
    assert plan_for_host(None, "host0") is None


def test_static_host_view_drives_placement():
    views = [
        StaticHostView(index=0, base_load=2),
        StaticHostView(index=1, base_load=1, idle_warm=frozenset({"f"})),
        StaticHostView(index=2, base_load=0, snapshots=frozenset({"f"})),
    ]
    assert SnapshotLocality().choose(views, "f") == 1
    assert LeastLoaded().choose(views, "f") == 2
    views[1].projected += 5
    assert views[1].load == 6
    views[2].healthy = False
    # host2 unhealthy, host1 loaded
    assert choose_healthy(LeastLoaded(), views, "f") == 0


def test_retry_budget_partitioning_conserves_tokens():
    whole = RetryBudget(10.0, 0.1)
    parts = [RetryBudget.partitioned(10.0, 0.1, 4) for _ in range(4)]
    assert sum(p.tokens for p in parts) == whole.tokens
    parts[0].tokens = 0.2
    parts[1].tokens = 6.3
    rebalanced = rebalance_tokens([p.tokens for p in parts])
    assert len(rebalanced) == 4
    assert rebalanced[0] == rebalanced[3]
    assert math.isclose(
        sum(rebalanced), 0.2 + 6.3 + 2.5 + 2.5, rel_tol=1e-12
    )
    assert rebalance_tokens([]) == []


def test_advance_to_bounded_stepping():
    env = Environment(seed=1)
    fired = []

    def ticker():
        while True:
            yield env.timeout(10.0)
            fired.append(env.now)

    env.process(ticker(), name="ticker")
    count = env.advance_to(35.0)
    assert env.now == 35.0
    assert fired == [10.0, 20.0, 30.0]
    assert count >= 3
    # Landing exactly on an event time includes it.
    env.advance_to(40.0)
    assert fired[-1] == 40.0
    with pytest.raises(SimulationError):
        env.advance_to(12.0)


# -- parallel_map spawn fallback ---------------------------------------


def _square(x):
    return x * x


def test_parallel_map_spawn_start_method():
    items = list(range(6))
    expected = [_square(i) for i in items]
    assert parallel_map(_square, items, jobs=2, start_method="spawn") == (
        expected
    )
    assert parallel_map(_square, items, jobs=2, start_method="fork") == (
        expected
    )
    assert parallel_map(_square, items, jobs=1) == expected
