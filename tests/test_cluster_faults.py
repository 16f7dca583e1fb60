"""Integration tests: fault injection against the cluster scheduler.

These pin the ISSUE's acceptance criteria: arming an *empty* fault
plan leaves the simulation bit-identical; the same seed and plan
replay the same report; and the self-healing control plane keeps a
host-crash storm above 99% availability while the same storm with
recovery disabled measurably fails arrivals.
"""

import pytest

from repro.cluster import ClusterConfig, ClusterSimulator, TIER_SHARED_EBS
from repro.cluster.placement import LeastLoaded, RoundRobin, choose_healthy
from repro.core.policies import Policy
from repro.faults import (
    DISABLED_RECOVERY,
    SCOPE_ALL,
    DeviceFault,
    FaultPlan,
    HealthPolicy,
    HedgePolicy,
    HostCrash,
    RecoveryPolicy,
    RetryPolicy,
    SheddingPolicy,
    SnapshotCorruption,
)
from repro.faults.chaos import scenario_fleet, scenario_trace
from repro.fleet.scheduler import InvocationOutcome, StartKind
from repro.fleet.workload import Arrival, ArrivalTrace, FleetFunction
from repro.service import (
    AddHostCommand,
    AdvanceCommand,
    DrainCommand,
    InjectCommand,
)
from repro.service.core import ClusterService

SECOND = 1_000_000.0


def fleet_of(*names):
    return [
        FleetFunction(
            name=name, profile_name="json", mean_interarrival_us=SECOND
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


def spaced_trace(count, spacing_us=400_000.0, functions=("f0", "f1")):
    return trace_of(
        *(
            (i * spacing_us, functions[i % len(functions)])
            for i in range(count)
        )
    )


def served_tuples(report):
    return [
        (s.time_us, s.function, s.kind, s.latency_us, s.host,
         s.outcome, s.attempts)
        for s in report.served
    ]


# -- zero-perturbation and determinism ---------------------------------


def test_empty_plan_is_bit_identical_to_legacy_path():
    """Arming the fault plane with nothing to inject must reproduce
    the legacy serving path's exact latencies, hosts, and kinds."""
    fleet = fleet_of("f0", "f1")
    trace = spaced_trace(6)
    config = ClusterConfig(num_hosts=2, placement="least-loaded", seed=5)
    legacy = ClusterSimulator(fleet, config).run(trace)
    armed = ClusterSimulator(fleet, config).run(
        trace, fault_plan=FaultPlan.empty()
    )
    assert served_tuples(armed) == served_tuples(legacy)
    assert all(s.outcome is InvocationOutcome.OK for s in armed.served)
    assert all(s.attempts == 1 for s in armed.served)


def test_same_seed_and_plan_replay_identically():
    fleet = fleet_of("f0", "f1")
    trace = spaced_trace(8)
    plan = FaultPlan(
        host_crashes=[
            HostCrash(host="host0", at_us=0.9 * SECOND,
                      reboot_after_us=1.0 * SECOND)
        ]
    )

    def go():
        config = ClusterConfig(
            num_hosts=2,
            placement="round-robin",
            recovery=RecoveryPolicy.full(),
            seed=3,
        )
        return ClusterSimulator(fleet, config).run(trace, fault_plan=plan)

    assert served_tuples(go()) == served_tuples(go())


def test_different_seeds_may_differ_but_stay_available():
    """The seed only feeds jitter/error draws — availability holds."""
    fleet = fleet_of("f0", "f1")
    trace = spaced_trace(8)
    plan = FaultPlan(
        host_crashes=[
            HostCrash(host="host0", at_us=0.9 * SECOND,
                      reboot_after_us=1.0 * SECOND)
        ]
    )
    for seed in (1, 2, 3):
        config = ClusterConfig(
            num_hosts=2,
            placement="round-robin",
            recovery=RecoveryPolicy.full(),
            seed=seed,
        )
        report = ClusterSimulator(fleet, config).run(
            trace, fault_plan=plan
        )
        assert report.availability() == 1.0


# -- host crashes ------------------------------------------------------

CRASH_PLAN = FaultPlan(
    host_crashes=[
        HostCrash(host="host0", at_us=0.9 * SECOND,
                  reboot_after_us=1.0 * SECOND)
    ]
)


def crash_run(recovery):
    fleet = fleet_of("f0", "f1")
    config = ClusterConfig(
        num_hosts=2, placement="round-robin", recovery=recovery, seed=3
    )
    return ClusterSimulator(fleet, config).run(
        spaced_trace(8), fault_plan=CRASH_PLAN
    )


def test_recovery_rides_out_a_host_crash():
    report = crash_run(RecoveryPolicy.full())
    assert report.availability() == 1.0
    counts = report.outcome_counts()
    assert counts["retried"] >= 1
    assert counts["failed"] == 0
    # The interrupted attempts retried elsewhere: amplification > 1.
    assert report.retry_amplification() > 1.0


def test_disabled_recovery_fails_crashed_invocations():
    report = crash_run(DISABLED_RECOVERY)
    assert report.availability() < 1.0
    counts = report.outcome_counts()
    assert counts["failed"] >= 1
    failed = [
        s for s in report.served
        if s.outcome is InvocationOutcome.FAILED
    ]
    assert all(s.kind is None for s in failed)


def test_crash_drains_keep_alive_pool():
    """A crashed host loses its warm VMs: the next invocation of the
    same function cannot be a warm start, even after reboot."""
    fleet = fleet_of("f0")
    trace = trace_of((0.0, "f0"), (4.0 * SECOND, "f0"))
    config = ClusterConfig(
        num_hosts=1,
        keep_alive_ttl_us=30 * SECOND,
        recovery=RecoveryPolicy(retry=RetryPolicy(enabled=True)),
        seed=3,
    )
    # Control: without the crash the second arrival reuses the warm VM.
    control = ClusterSimulator(fleet, config).run(trace)
    assert control.served[1].kind is StartKind.WARM

    plan = FaultPlan(
        host_crashes=[
            HostCrash(host="host0", at_us=3.0 * SECOND,
                      reboot_after_us=0.5 * SECOND)
        ]
    )
    report = ClusterSimulator(fleet, config).run(trace, fault_plan=plan)
    assert report.host_stats["host0"].crash_vm_losses == 1
    second = report.served[1]
    assert second.outcome in (InvocationOutcome.OK, InvocationOutcome.RETRIED)
    assert second.kind is not StartKind.WARM


# -- snapshot corruption -----------------------------------------------


def test_corrupted_snapshot_detected_and_retried():
    fleet = fleet_of("f0", "f1")
    config = ClusterConfig(
        num_hosts=2,
        placement="round-robin",
        assume_snapshots_exist=True,
        keep_alive_ttl_us=0.0,
        recovery=RecoveryPolicy(retry=RetryPolicy(enabled=True)),
        seed=3,
    )
    plan = FaultPlan(
        corruptions=[
            SnapshotCorruption(host="host0", function="f0", at_us=0.0)
        ]
    )
    simulator = ClusterSimulator(fleet, config)
    report = simulator.run(spaced_trace(4), fault_plan=plan)
    assert report.availability() == 1.0
    assert report.outcome_counts()["retried"] >= 1
    assert report.host_stats["host0"].snapshot_corruptions == 1
    assert simulator.injector.summary()["corruptions_detected"] == 1


# -- device faults -----------------------------------------------------


def test_device_error_window_retries_on_another_host():
    fleet = fleet_of("f0", "f1")
    config = ClusterConfig(
        num_hosts=2,
        placement="round-robin",
        assume_snapshots_exist=True,
        keep_alive_ttl_us=0.0,
        recovery=RecoveryPolicy(retry=RetryPolicy(enabled=True)),
        seed=3,
    )
    # host0's device fails every read for the whole run.
    plan = FaultPlan(
        device_faults=[
            DeviceFault(scope="host0", start_us=0.0, error_rate=1.0)
        ]
    )
    report = ClusterSimulator(fleet, config).run(
        spaced_trace(4), fault_plan=plan
    )
    assert report.availability() == 1.0
    assert report.outcome_counts()["retried"] >= 1
    # Every arrival ended up served by the healthy host.
    assert {s.host for s in report.served} == {"host1"}


def test_shared_tier_scope_hits_the_shared_device():
    fleet = fleet_of("f0", "f1")
    config = ClusterConfig(
        num_hosts=2,
        placement="round-robin",
        snapshot_tier=TIER_SHARED_EBS,
        assume_snapshots_exist=True,
        keep_alive_ttl_us=0.0,
        seed=3,
    )
    plan = FaultPlan(
        device_faults=[
            DeviceFault(
                scope="shared", start_us=0.0, latency_factor=10.0
            )
        ]
    )
    baseline = ClusterSimulator(fleet, config).run(spaced_trace(2))
    degraded = ClusterSimulator(fleet, config).run(
        spaced_trace(2), fault_plan=plan
    )
    assert degraded.availability() == 1.0
    assert (
        degraded.mean_latency_us() > baseline.mean_latency_us()
    )


def test_devices_for_scope_unknown_host_raises():
    fleet = fleet_of("f0")
    simulator = ClusterSimulator(
        fleet, ClusterConfig(num_hosts=1, seed=3)
    )
    simulator.run(trace_of((0.0, "f0")))
    with pytest.raises(ValueError):
        simulator.devices_for_scope("no-such-host")
    assert simulator.devices_for_scope("shared") == []
    assert len(simulator.devices_for_scope(SCOPE_ALL)) == 1


# -- load shedding and degraded mode -----------------------------------


def burst_trace(count, function="f0"):
    return trace_of(*((float(i), function) for i in range(count)))


def test_overload_sheds_beyond_max_queue_depth():
    fleet = fleet_of("f0")
    config = ClusterConfig(
        num_hosts=1,
        recovery=RecoveryPolicy(
            shedding=SheddingPolicy(max_queue_depth=2)
        ),
        seed=3,
    )
    report = ClusterSimulator(fleet, config).run(burst_trace(8))
    counts = report.outcome_counts()
    assert counts["shed"] >= 1
    assert counts["ok"] >= 1
    shed = [
        s for s in report.served if s.outcome is InvocationOutcome.SHED
    ]
    assert all(s.attempts == 0 and s.kind is None for s in shed)
    assert report.host_stats["host0"].shed == counts["shed"]
    # Shed arrivals carry no latency and never pollute the tails.
    assert report.latency_percentile(99) > 0.0
    assert 0.0 < report.availability() < 1.0


def test_degraded_mode_switches_restore_policy_under_load():
    fleet = fleet_of("f0")
    config = ClusterConfig(
        num_hosts=1,
        assume_snapshots_exist=True,
        keep_alive_ttl_us=0.0,
        recovery=RecoveryPolicy(
            shedding=SheddingPolicy(degraded_queue_depth=1)
        ),
        seed=3,
    )
    report = ClusterSimulator(fleet, config).run(burst_trace(4))
    assert report.availability() == 1.0
    assert report.host_stats["host0"].degraded_starts >= 1


def test_fully_shed_report_has_no_divide_by_zero():
    """A report whose every arrival was shed must not crash any
    summary statistic (the fully-shed overload edge case)."""
    from repro.fleet.scheduler import FleetReport, ServedInvocation

    report = FleetReport(
        served=[
            ServedInvocation(
                time_us=0.0,
                function="f0",
                kind=None,
                latency_us=0.0,
                outcome=InvocationOutcome.SHED,
                attempts=0,
            )
        ]
    )
    assert report.availability() == 0.0
    assert report.latency_percentile(99) == 0.0
    assert report.latency_percentile(99.9) == 0.0
    assert report.mean_latency_us() == 0.0
    assert report.retry_amplification() == 0.0


def test_empty_report_statistics_are_defined():
    from repro.fleet.scheduler import FleetReport

    report = FleetReport()
    assert report.availability() == 1.0
    assert report.latency_percentile(50) == 0.0
    assert report.mean_latency_us() == 0.0
    assert report.retry_amplification() == 0.0


# -- hedging -----------------------------------------------------------


def test_hedge_wins_against_a_browned_out_host():
    """With a tailored hedge policy, an attempt stuck on a degraded
    device is hedged on the healthy host, which finishes first."""
    fleet = fleet_of("f0", "f1")
    config = ClusterConfig(
        num_hosts=2,
        placement="round-robin",
        assume_snapshots_exist=True,
        keep_alive_ttl_us=0.0,
        recovery=RecoveryPolicy(
            hedge=HedgePolicy(
                enabled=True, percentile=50.0, min_samples=2,
                floor_us=0.0, multiplier=2.0,
            ),
        ),
        seed=3,
    )
    # Four clean arrivals establish the latency baseline, then host0's
    # device collapses for the rest of the run and the final arrival
    # (round-robin: index 4 -> host0) gets stuck on it.
    trace = spaced_trace(5, spacing_us=2.0 * SECOND)
    plan = FaultPlan(
        device_faults=[
            DeviceFault(
                scope="host0",
                start_us=7.9 * SECOND,
                latency_factor=50.0,
                bandwidth_factor=0.02,
            )
        ]
    )
    report = ClusterSimulator(fleet, config).run(trace, fault_plan=plan)
    assert report.availability() == 1.0
    counts = report.outcome_counts()
    assert counts["hedge-won"] == 1
    hedged = [
        s for s in report.served
        if s.outcome is InvocationOutcome.HEDGE_WON
    ]
    assert hedged[0].host == "host1"
    assert hedged[0].attempts == 2
    assert report.host_stats["host1"].hedges == 1


# -- health-filtered placement -----------------------------------------


class _View:
    def __init__(self, index, load, healthy=True):
        self.index = index
        self._load = load
        self.healthy = healthy

    @property
    def load(self):
        return self._load

    def has_idle_warm(self, function):
        return False

    def has_snapshot_for(self, function):
        return False


def test_choose_healthy_routes_around_unhealthy_hosts():
    views = [_View(0, 0, healthy=False), _View(1, 5), _View(2, 3)]
    # host0 has the least load but is drained; host2 is next-best.
    assert LeastLoaded().choose(views, "f") == 0
    assert choose_healthy(LeastLoaded(), views, "f") == 2


def test_choose_healthy_uses_all_hosts_when_all_unhealthy():
    policy = RoundRobin()
    views = [_View(0, 0, healthy=False), _View(1, 0, healthy=False)]
    assert [choose_healthy(policy, views, "f") for _ in range(3)] == [0, 1, 0]


def test_choose_healthy_inert_on_healthy_cluster():
    views = [_View(0, 2), _View(1, 1)]
    assert choose_healthy(LeastLoaded(), views, "f") == 1
    # The policy sees the caller's own list, so its positions (and a
    # round-robin cursor) advance exactly as without the filter.
    policy = RoundRobin()
    assert [choose_healthy(policy, views, "f") for _ in range(3)] == [0, 1, 0]


# -- deadlines ---------------------------------------------------------


def test_deadline_fails_invocations_that_cannot_finish():
    fleet = fleet_of("f0")
    config = ClusterConfig(
        num_hosts=1,
        recovery=RecoveryPolicy(deadline_us=50_000.0),
        seed=3,
    )
    # A cold start takes seconds; a 50 ms deadline must fire.
    report = ClusterSimulator(fleet, config).run(trace_of((0.0, "f0")))
    served = report.served[0]
    assert served.outcome is InvocationOutcome.FAILED
    assert served.kind is None
    assert served.latency_us == pytest.approx(50_000.0)
    assert report.availability() == 0.0


# -- counters read from HostStats --------------------------------------

#: Each scheduler counter and the ``HostStats`` field it sums.
_STAT_COUNTERS = {
    "cluster.scheduler.invocations": "invocations",
    "cluster.scheduler.warm_starts": "warm_starts",
    "cluster.scheduler.snapshot_starts": "snapshot_starts",
    "cluster.scheduler.cold_starts": "cold_starts",
    "cluster.scheduler.evictions": "evictions",
    "cluster.scheduler.failed": "failures",
    "cluster.scheduler.shed": "shed",
    "retry.attempts": "retries",
    "cluster.scheduler.degraded_starts": "degraded_starts",
    "cluster.scheduler.snapshot_corruptions": "snapshot_corruptions",
}


def test_scheduler_counters_equal_summed_host_stats():
    """An armed run with a crash, an error window, corruptions, a short
    keep-alive and a host added live moves every scheduler counter;
    each must read the sum of its ``HostStats`` field over all three
    hosts, and the report's evictions the hosts' evictions."""
    plan = FaultPlan(
        host_crashes=[
            HostCrash(host="host0", at_us=3 * SECOND, reboot_after_us=4 * SECOND)
        ],
        device_faults=[
            DeviceFault(
                scope="host1",
                start_us=6 * SECOND,
                duration_us=4 * SECOND,
                error_rate=0.9,
            )
        ],
        corruptions=[
            SnapshotCorruption(host="host1", function="f0", at_us=1.0),
            SnapshotCorruption(host="host0", function="f1", at_us=1.0),
        ],
    )
    config = ClusterConfig(
        num_hosts=2,
        seed=1,
        recovery=RecoveryPolicy.full(
            deadline_us=4 * SECOND, max_queue_depth=4, degraded_queue_depth=2
        ),
        keep_alive_ttl_us=300_000.0,
    )
    sim = ClusterSimulator(scenario_fleet(), config)
    service = ClusterService(sim, fault_plan=plan)
    service.execute(
        InjectCommand.from_arrivals(scenario_trace(60, 200_000.0).arrivals)
    )
    service.execute(AdvanceCommand(ms=2_000.0))
    service.execute(AddHostCommand())
    service.execute(DrainCommand())
    report = service.report

    stats = list(report.host_stats.values())
    assert [s.host for s in stats] == ["host0", "host1", "host2"]
    counters = sim.registry.collect()["counters"]
    for name, stat in _STAT_COUNTERS.items():
        total = sum(getattr(s, stat) for s in stats)
        assert total > 0, stat
        assert counters[name] == total, name
    assert report.evictions == sum(s.evictions for s in stats)
    assert counters["cluster.placement.decisions"] == 60
    assert sum(counters[f"cluster.placement.to.{s.host}"] for s in stats) == 60
