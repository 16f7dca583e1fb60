"""The snapshot durability plane: checksummed replicas, verified
restores, quarantine/repair/rebuild escalation, scrubbing, and the
FailSlow fault kind.

Pins the PR's acceptance criteria: corruption is detected at read
time (not via the injector side-channel), quarantined replicas are
never re-read, repair traffic spends from the shared retry budget,
the bitrot-storm drill detects 100% of corrupted restores while
holding availability, a disabled policy is bit-identical to no
policy, and the detection/repair event stream is byte-identical
across shard counts.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterConfig,
    ClusterSimulator,
    ShardedClusterSimulator,
)
from repro.faults import (
    DISABLED_DURABILITY,
    DISABLED_RECOVERY,
    DurabilityManager,
    DurabilityPolicy,
    FailSlow,
    FaultPlan,
    HealthMonitor,
    HealthPolicy,
    RecoveryPolicy,
    RetryBudget,
    SnapshotCorruption,
)
from repro.faults.durability import (
    HEALTHY,
    QUARANTINED,
    VERIFY_CORRUPT,
    VERIFY_OK,
    VERIFY_SILENT,
    VERIFY_UNTRACKED,
)
from repro.fleet.scheduler import InvocationOutcome
from repro.fleet.workload import Arrival, ArrivalTrace, FleetFunction
from repro.sim import Environment

SECOND = 1_000_000.0

GOLDEN = (11, 22, 33, 44)


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


def make_manager(policy=None, budget=None, checksums=GOLDEN):
    env = Environment(seed=3)
    policy = policy or DurabilityPolicy(enabled=True, replicas=2)
    manager = DurabilityManager(
        env,
        policy,
        checksum_fn=lambda host, fn: checksums,
        budget_fn=(lambda: budget) if budget is not None else None,
    )
    return env, manager


# -- policy validation and serialisation -------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(replicas=0),
        dict(chunk_pages=0),
        dict(scrub_interval_us=0.0),
        dict(scrub_interval_us=-1.0),
        dict(repair_us_per_chunk=-1.0),
        dict(repair_retry_us=0.0),
    ],
)
def test_policy_validation(kwargs):
    with pytest.raises(ValueError):
        DurabilityPolicy(**kwargs)


def test_policy_round_trips_through_json():
    policy = DurabilityPolicy(
        enabled=True, replicas=3, scrub_interval_us=5e5
    )
    doc = json.loads(json.dumps(policy.as_dict()))
    assert DurabilityPolicy.from_dict(doc) == policy
    assert DISABLED_DURABILITY == DurabilityPolicy()
    assert not DISABLED_DURABILITY.enabled


def test_fail_slow_validation_and_round_trip():
    with pytest.raises(ValueError):
        FailSlow(host="h", start_us=-1.0)
    with pytest.raises(ValueError):
        FailSlow(host="h", start_us=0.0, slowdown=1.0)
    with pytest.raises(ValueError):
        FailSlow(host="h", start_us=0.0, duration_us=0.0)
    plan = FaultPlan(
        fail_slows=[
            FailSlow(host="h0", start_us=5.0, slowdown=3.0),
            FailSlow(
                host="h1", start_us=0.0, slowdown=2.0, duration_us=9.0
            ),
        ]
    )
    assert len(plan) == 2 and not plan.is_empty
    doc = json.loads(json.dumps(plan.as_dict()))
    assert FaultPlan.from_dict(doc) == plan


# -- manager: verified restores and escalation -------------------------


def test_intact_replicas_verify_ok():
    env, manager = make_manager()
    assert manager.verify_restore("host0", "f0") == VERIFY_OK
    assert manager.has_readable("host0", "f0")
    assert manager.summary()["quarantines"] == 0


def test_untracked_function_verifies_untracked():
    env = Environment(seed=1)
    manager = DurabilityManager(
        env,
        DurabilityPolicy(enabled=True),
        checksum_fn=lambda host, fn: None,
    )
    assert manager.verify_restore("host0", "f0") == VERIFY_UNTRACKED
    # Without artefacts, the warm check stays permissive.
    assert manager.has_readable("host0", "f0")


def test_corruption_detected_at_read_time_and_fails_over():
    env, manager = make_manager()
    manager.mark_corrupt("host0", "f0")
    # Replica 0 took the hit; detection quarantines it.
    assert manager.verify_restore("host0", "f0") == VERIFY_CORRUPT
    rs = manager.ensure("host0", "f0")
    assert [r.state for r in rs.replicas] == [QUARANTINED, HEALTHY]
    # Failover: the next restore reads the healthy replica 1.
    assert manager.verify_restore("host0", "f0") == VERIFY_OK
    assert rs.pick().index == 1
    assert manager.has_readable("host0", "f0")
    assert manager.detected_restore == 1


def test_corruption_targeting_is_counter_driven():
    env, manager = make_manager()
    manager.mark_corrupt("host0", "f0")
    manager.mark_corrupt("host0", "f0")
    rs = manager.ensure("host0", "f0")
    # seq 0 hit replica 0 chunk 0, seq 1 hit replica 1 chunk 1 —
    # deterministic, no RNG involved.
    assert rs.replicas[0].stored[0] == GOLDEN[0] ^ 0x5A5A5A5A
    assert rs.replicas[1].stored[1] == GOLDEN[1] ^ 0x5A5A5A5A
    assert manager.corruptions_applied == 2


def test_pending_corruption_applies_on_first_touch():
    env = Environment(seed=1)
    box = {"golden": None}
    manager = DurabilityManager(
        env,
        DurabilityPolicy(enabled=True, replicas=2),
        checksum_fn=lambda host, fn: box["golden"],
    )
    manager.mark_corrupt("host0", "f0")  # artefacts don't exist yet
    assert manager.ensure("host0", "f0") is None
    box["golden"] = GOLDEN  # the snapshot gets recorded
    rs = manager.ensure("host0", "f0")
    assert not rs.replicas[0].intact
    assert manager.corruptions_applied == 1


def test_all_replicas_bad_routes_to_rebuild():
    env, manager = make_manager()
    for _ in range(2):
        manager.mark_corrupt("host0", "f0")
        manager.verify_restore("host0", "f0")
    rs = manager.ensure("host0", "f0")
    assert rs.rebuilding and not rs.readable
    # The warm check reports no readable replica: the caller must
    # fall back to a cold boot (rebuild-from-scratch).
    assert not manager.has_readable("host0", "f0")
    # The publish after the cold boot completes the rebuild.
    manager.publish("host0", "f0")
    assert rs.readable
    assert all(r.state == HEALTHY for r in rs.replicas)
    assert manager.rebuilds == 1


def test_publish_never_heals_a_quarantined_replica():
    env, manager = make_manager()
    manager.mark_corrupt("host0", "f0")
    manager.verify_restore("host0", "f0")
    rs = manager.ensure("host0", "f0")
    assert rs.replicas[0].state == QUARANTINED
    manager.publish("host0", "f0")  # partially readable: untouched
    assert rs.replicas[0].state == QUARANTINED
    assert manager.rebuilds == 0


def test_background_repair_restores_quarantined_replica():
    env, manager = make_manager()
    emitted = []
    manager.observer = lambda host, kind, **detail: emitted.append(kind)
    manager.mark_corrupt("host0", "f0")
    manager.verify_restore("host0", "f0")
    rs = manager.ensure("host0", "f0")
    env.run()
    assert rs.replicas[0].state == HEALTHY
    assert rs.replicas[0].intact
    assert manager.repairs == 1
    assert emitted == ["durability.quarantine", "durability.repair"]


def test_repair_defers_until_budget_allows():
    budget = RetryBudget(min_budget=0.0, ratio=1.0)
    env, manager = make_manager(budget=budget)
    manager.mark_corrupt("host0", "f0")
    manager.verify_restore("host0", "f0")
    # No tokens: the repair loop parks, deferring each denial.
    env.run(until=1_200_000.0)
    assert manager.repairs == 0
    assert manager.repairs_deferred >= 2
    budget.on_arrival()  # earn one token
    env.run()
    assert manager.repairs == 1
    assert budget.spent == 1.0


def test_verification_off_serves_silently():
    env, manager = make_manager(
        policy=DurabilityPolicy(
            enabled=True, replicas=1, verify_restores=False
        )
    )
    manager.mark_corrupt("host0", "f0")
    assert manager.verify_restore("host0", "f0") == VERIFY_SILENT
    assert manager.silent_corrupt_serves == 1
    assert manager.quarantines == 0


def test_scrub_finds_rot_before_any_restore():
    env, manager = make_manager()
    manager.ensure("host0", "f0")
    manager.ensure("host0", "f1")
    manager.mark_corrupt("host0", "f1")
    result = manager.scrub_now()
    assert result == {"hosts": 1, "checked": 4, "found": 1}
    assert manager.detected_scrub == 1
    assert manager.detected_restore == 0
    env.run()
    assert manager.repairs == 1


def test_stop_interrupts_repairs_and_leaves_quarantine():
    env, manager = make_manager()
    manager.mark_corrupt("host0", "f0")
    manager.verify_restore("host0", "f0")
    manager.stop()
    env.run()
    rs = manager.ensure("host0", "f0")
    assert rs.replicas[0].state == QUARANTINED
    assert manager.repairs == 0


def test_status_document_is_json_ready():
    env, manager = make_manager()
    manager.mark_corrupt("host0", "f0")
    manager.verify_restore("host0", "f0")
    doc = json.loads(json.dumps(manager.status(), sort_keys=True))
    assert doc["policy"]["enabled"] is True
    assert doc["counters"]["quarantines"] == 1
    (entry,) = doc["replica_sets"]
    assert entry["replicas"] == [QUARANTINED, HEALTHY]
    assert entry["readable"] is True


# -- fail-slow detection -----------------------------------------------


class _FakeHost:
    def __init__(self, host_id):
        self.host_id = host_id
        self.crashed = False


class _FakeState:
    def __init__(self, host_id):
        self.host = _FakeHost(host_id)
        self.healthy = True
        self.error_times = []
        self.last_bad_us = 0.0


FAIL_SLOW_POLICY = HealthPolicy(
    enabled=True,
    check_interval_us=100.0,
    fail_slow_factor=3.0,
    fail_slow_min_samples=4,
    fail_slow_window=8,
)


def test_fail_slow_policy_validation():
    with pytest.raises(ValueError):
        HealthPolicy(fail_slow_factor=1.0)
    with pytest.raises(ValueError):
        HealthPolicy(fail_slow_factor=2.0, fail_slow_min_samples=1)
    with pytest.raises(ValueError):
        HealthPolicy(
            fail_slow_factor=2.0,
            fail_slow_min_samples=8,
            fail_slow_window=4,
        )


def test_fail_slow_outlier_drains_host():
    env = Environment(seed=1)
    state = _FakeState("h0")
    monitor = HealthMonitor(env, FAIL_SLOW_POLICY, [state])
    for _ in range(4):  # freeze the baseline at median 100
        monitor.note_restore_latency(state, 100.0)
    assert state.healthy
    for _ in range(4):  # 10x the baseline: a fail-slow device
        monitor.note_restore_latency(state, 1_000.0)
    assert not state.healthy
    assert monitor.fail_slow_drains == 1
    assert monitor.summary()["fail_slow_drains"] == 1


def test_fail_slow_tolerates_healthy_jitter():
    env = Environment(seed=1)
    state = _FakeState("h0")
    monitor = HealthMonitor(env, FAIL_SLOW_POLICY, [state])
    for latency in (100.0, 120.0, 90.0, 110.0, 130.0, 95.0, 105.0):
        monitor.note_restore_latency(state, latency)
    assert state.healthy
    assert monitor.fail_slow_drains == 0


def test_fail_slow_detection_off_by_default():
    env = Environment(seed=1)
    state = _FakeState("h0")
    monitor = HealthMonitor(
        env, HealthPolicy(enabled=True, check_interval_us=100.0), [state]
    )
    for _ in range(20):
        monitor.note_restore_latency(state, 1e9)
    assert state.healthy


# -- cluster integration -----------------------------------------------

DURABILITY = DurabilityPolicy(enabled=True, replicas=2)


def _corruption_plan(*specs):
    return FaultPlan(
        corruptions=[
            SnapshotCorruption(host=h, function=f, at_us=at)
            for h, f, at in specs
        ]
    )


def test_cluster_detects_and_survives_corruption():
    fleet = fleet_of("f0", "f1")
    trace = spaced_trace(10)
    config = ClusterConfig(
        num_hosts=2,
        seed=5,
        keep_alive_ttl_us=0.0,
        assume_snapshots_exist=True,
        recovery=RecoveryPolicy.full(),
        durability=DURABILITY,
    )
    plan = _corruption_plan(("host0", "f0", 100_000.0))
    simulator = ClusterSimulator(fleet, config)
    report = simulator.run(trace, fault_plan=plan)
    summary = report.fault_summary
    assert summary["corruptions_applied"] == 1
    assert (
        summary["corruptions_detected_restore"]
        + summary["corruptions_detected_scrub"]
    ) >= 1
    assert summary["silent_corrupt_serves"] == 0
    assert report.availability() == 1.0
    counts = report.outcome_counts()
    assert counts[InvocationOutcome.FAILED.value] == 0


def test_recovery_off_measurably_fails_on_corruption():
    fleet = fleet_of("f0", "f1")
    trace = spaced_trace(10)
    plan = _corruption_plan(
        ("host0", "f0", 100_000.0), ("host1", "f1", 100_000.0)
    )
    config = ClusterConfig(
        num_hosts=2,
        seed=5,
        keep_alive_ttl_us=0.0,
        assume_snapshots_exist=True,
        recovery=DISABLED_RECOVERY,
        durability=DurabilityPolicy(enabled=True, replicas=1),
    )
    report = ClusterSimulator(fleet, config).run(trace, fault_plan=plan)
    assert report.availability() < 1.0
    assert report.fault_summary["corruptions_detected_restore"] >= 1


def test_disabled_policy_is_bit_identical_to_no_policy():
    fleet = fleet_of("f0", "f1")
    trace = spaced_trace(8)
    base = ClusterConfig(num_hosts=2, seed=5)
    with_policy = ClusterConfig(
        num_hosts=2, seed=5, durability=DISABLED_DURABILITY
    )
    plain = ClusterSimulator(fleet, base).run(trace)
    gated = ClusterSimulator(fleet, with_policy).run(trace)
    assert [
        (s.time_us, s.function, s.latency_us, s.host)
        for s in plain.served
    ] == [
        (s.time_us, s.function, s.latency_us, s.host)
        for s in gated.served
    ]


def test_sharded_durability_event_stream_is_shard_invariant():
    fleet = fleet_of("f0", "f1")
    trace = spaced_trace(12, spacing_us=300_000.0)
    plan = _corruption_plan(
        ("host0", "f0", 200_000.0),
        ("host1", "f1", 900_000.0),
        ("host0", "f1", 1_800_000.0),
    )
    streams = {}
    for shards in (1, 2):
        config = ClusterConfig(
            num_hosts=2,
            seed=7,
            keep_alive_ttl_us=0.0,
            assume_snapshots_exist=True,
            recovery=RecoveryPolicy.full(),
            durability=DurabilityPolicy(
                enabled=True, replicas=2, scrub_interval_us=1_000_000.0
            ),
        )
        simulator = ShardedClusterSimulator(fleet, config, shards=shards)
        report = simulator.run(trace, fault_plan=plan)
        streams[shards] = json.dumps(
            simulator.durability_events, sort_keys=True
        )
        assert report.fault_summary["corruptions_applied"] == 3
    assert streams[1] == streams[2]
    assert streams[1] != "[]"


def test_durability_events_share_the_flight_rings_serving_clock():
    # One record, one clock: each durability event of a single-heap
    # run is stamped serving-relative, exactly as its flight-ring
    # entry is (not on the absolute clock that includes prep).
    from repro.metrics.flight import FlightRecorder

    fleet = fleet_of("f0", "f1")
    trace = spaced_trace(12, spacing_us=300_000.0)
    plan = _corruption_plan(
        ("host0", "f0", 200_000.0), ("host1", "f1", 900_000.0)
    )
    config = ClusterConfig(
        num_hosts=2,
        seed=7,
        keep_alive_ttl_us=0.0,
        assume_snapshots_exist=True,
        recovery=RecoveryPolicy.full(),
        durability=DurabilityPolicy(
            enabled=True, replicas=2, scrub_interval_us=1_000_000.0
        ),
    )
    flight = FlightRecorder(capacity_per_host=4096)
    simulator = ClusterSimulator(fleet, config)
    simulator.run(trace, fault_plan=plan, flight=flight)
    events = simulator.durability_events
    assert {e["kind"] for e in events} >= {"quarantine", "repair"}
    rings = flight.document()["rings"]
    for host in {e["host"] for e in events}:
        stream = [
            (e["t_us"], "durability." + e["kind"])
            for e in sorted(events, key=lambda e: e["seq"])
            if e["host"] == host
        ]
        ring = [
            (e["t_us"], e["kind"])
            for e in rings[host]
            if e["kind"].startswith("durability.")
        ]
        assert stream == ring


def test_bitrot_storm_drill_detects_everything():
    from repro.faults.chaos import run_chaos

    report = run_chaos("bitrot-storm", num_hosts=4, seed=1, arrivals=60)
    assert report.detection_rate == 1.0
    assert report.silent_corrupt_serves == 0
    assert report.corruptions_detected >= 1
    assert report.availability >= 0.99
    doc = report.as_dict()
    assert doc["detection_rate"] == 1.0


def test_fail_slow_fault_drains_and_recovers_host():
    fleet = fleet_of("f0", "f1")
    trace = spaced_trace(24, spacing_us=400_000.0)
    config = ClusterConfig(
        num_hosts=2,
        seed=5,
        keep_alive_ttl_us=0.0,
        assume_snapshots_exist=True,
        recovery=RecoveryPolicy(
            health=HealthPolicy(
                enabled=True,
                check_interval_us=100_000.0,
                reintegrate_after_us=500_000.0,
                # The device slowdown reaches the restore latency
                # diluted by compute time, so the end-to-end outlier
                # factor is far below the raw device factor.
                fail_slow_factor=2.0,
                fail_slow_min_samples=3,
                fail_slow_window=6,
            )
        ),
    )
    plan = FaultPlan(
        fail_slows=[
            FailSlow(
                host="host0",
                start_us=5_000_000.0,
                slowdown=50.0,
                duration_us=3_000_000.0,
            )
        ]
    )
    simulator = ClusterSimulator(fleet, config)
    report = simulator.run(trace, fault_plan=plan)
    summary = report.fault_summary
    assert summary["fail_slows_applied"] == 1
    assert summary["fail_slows_recovered"] == 1
    assert report.availability() == 1.0
    # The outlier detector drained the slow host off rotation.
    assert simulator.monitor.fail_slow_drains >= 1


# -- service plane -----------------------------------------------------


def test_service_scrub_and_status_replay_bit_identically(tmp_path):
    from repro.service.commands import parse_command
    from repro.service.core import build_service, replay_journal
    from repro.service.journal import JournalWriter

    path = tmp_path / "durability.journal"
    spec = {
        "hosts": 2,
        "functions": 4,
        "seed": 3,
        "durability": {"enabled": True, "replicas": 2},
        "source": {"kind": "poisson", "seed": 2},
    }
    service = build_service(spec, journal=JournalWriter(path))
    service.execute(parse_command("advance 2000"))
    result = service.execute(parse_command("scrub"))
    assert result["scrub"]["enabled"] is True
    result = service.execute(parse_command("durability-status"))
    assert result["durability"]["enabled"] is True
    assert "durability_sha256" in result["digest"]
    service.execute(parse_command("drain"))
    outcome = replay_journal(path)
    assert outcome.ok, outcome.mismatches


def test_service_without_durability_reports_disabled(tmp_path):
    from repro.service.commands import parse_command
    from repro.service.core import build_service

    service = build_service({"hosts": 1, "functions": 2, "seed": 1})
    result = service.execute(parse_command("durability-status"))
    assert result["durability"] == {"enabled": False}
    assert service.execute(parse_command("scrub"))["scrub"] == {
        "enabled": False
    }


# -- properties --------------------------------------------------------


@given(
    replicas=st.integers(min_value=1, max_value=4),
    ops=st.lists(
        st.sampled_from(["corrupt", "verify", "scrub", "publish", "run"]),
        max_size=40,
    ),
)
@settings(max_examples=100, deadline=None)
def test_replica_conservation_under_interleavings(replicas, ops):
    """Under any interleaving of corruption, verified restores,
    scrubs, publishes, and time advancing, every replica set keeps
    exactly R replicas in valid states, and is either readable or
    explicitly rebuilding — never silently lost."""
    env = Environment(seed=9)
    manager = DurabilityManager(
        env,
        DurabilityPolicy(enabled=True, replicas=replicas),
        checksum_fn=lambda host, fn: GOLDEN,
    )
    for op in ops:
        if op == "corrupt":
            manager.mark_corrupt("host0", "f0")
        elif op == "verify":
            manager.verify_restore("host0", "f0")
        elif op == "scrub":
            manager.scrub_now()
        elif op == "publish":
            manager.publish("host0", "f0")
        elif op == "run":
            env.run(until=env.now + 50_000.0)
        rs = manager.ensure("host0", "f0")
        assert len(rs.replicas) == replicas
        assert all(
            r.state in (HEALTHY, QUARANTINED) for r in rs.replicas
        )
        assert rs.readable or rs.rebuilding
        # Quarantined replicas are never the pick.
        picked = rs.pick()
        if picked is not None:
            assert picked.state == HEALTHY
        else:
            assert rs.rebuilding
    # Detection conservation: every applied corruption is either
    # still latent on disk, detected, or wiped by a rebuild.
    assert (
        manager.detected_restore + manager.detected_scrub
        <= manager.corruptions_applied
    )
    # Let outstanding repairs finish: the set must converge back to
    # fully healthy (no budget pressure in this model).
    env.run()
    rs = manager.ensure("host0", "f0")
    healed = all(
        r.state == HEALTHY for r in rs.replicas
    ) or rs.rebuilding
    assert healed


@given(
    min_budget=st.floats(min_value=0.0, max_value=10.0),
    ratio=st.floats(min_value=0.0, max_value=1.0),
    ops=st.lists(
        st.sampled_from(["arrival", "retry", "corrupt+verify", "run"]),
        max_size=60,
    ),
)
@settings(max_examples=100, deadline=None)
def test_retry_budget_conserved_with_repair_traffic(
    min_budget, ratio, ops
):
    """Mixing durability repairs into the retry budget must preserve
    token conservation: ``tokens == min_budget + ratio*arrivals -
    spent`` at every instant, and spending (serving retries + repair
    grants) never exceeds earnings."""
    env = Environment(seed=11)
    budget = RetryBudget(min_budget=min_budget, ratio=ratio)
    manager = DurabilityManager(
        env,
        DurabilityPolicy(
            enabled=True, replicas=2, repair_retry_us=10_000.0
        ),
        checksum_fn=lambda host, fn: GOLDEN,
        budget_fn=lambda: budget,
    )
    for op in ops:
        if op == "arrival":
            budget.on_arrival()
        elif op == "retry":
            budget.try_spend()
        elif op == "corrupt+verify":
            manager.mark_corrupt("host0", "f0")
            manager.verify_restore("host0", "f0")
        elif op == "run":
            env.run(until=env.now + 25_000.0)
        earned = budget.min_budget + budget.ratio * budget.arrivals
        assert budget.spent <= earned + 1e-9
        assert abs(budget.tokens - (earned - budget.spent)) < 1e-6
        assert budget.tokens >= 0.0
    manager.stop()
    env.run()
    earned = budget.min_budget + budget.ratio * budget.arrivals
    assert budget.spent <= earned + 1e-9
    # Every completed repair paid exactly one token.
    assert manager.repairs <= budget.spent + 1e-9 or manager.repairs == 0
