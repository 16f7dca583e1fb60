"""End-to-end causal tracing: event canon, merge determinism, and
the cross-shard byte-identity contract under an armed fault plan.

The headline test is the ISSUE's satellite: a 4-host run with a
device brownout, a host crash + reboot, and a latent snapshot
corruption, traced at ``shards=1`` and ``shards=2``, must serialize
to byte-identical causal trace documents — and the document must
contain at least one invocation whose story combines a retry, a
redispatch, and a hedge pair.
"""

import json

import pytest

from repro.cluster import ClusterConfig, ClusterSimulator, ShardedClusterSimulator
from repro.faults import FaultPlan
from repro.faults.recovery import (
    HedgePolicy,
    HealthPolicy,
    RecoveryPolicy,
    RetryPolicy,
    SheddingPolicy,
)
from repro.fleet.workload import Arrival, ArrivalTrace, FleetFunction
from repro.metrics.causal import (
    CAUSAL_SCHEMA,
    CausalRecorder,
    CausalTracer,
    ROUTER_SRC,
    TraceContext,
    TraceEvent,
    find_invocations,
    invocation_kinds,
    render_invocation,
)


# -- primitives ---------------------------------------------------------


def test_recorder_stamps_monotone_sequence():
    rec = CausalRecorder(3)
    rec.emit(1, 10.0, "a")
    rec.emit(2, 5.0, "b")
    rec.emit(1, 20.0, "c")
    assert [(e.src, e.seq) for e in rec.events] == [(3, 0), (3, 1), (3, 2)]


def test_recorder_drain_clears_but_sequence_continues():
    rec = CausalRecorder(0)
    rec.emit(1, 1.0, "a")
    first = rec.drain()
    rec.emit(1, 2.0, "b")
    second = rec.drain()
    assert [e.seq for e in first] == [0]
    assert [e.seq for e in second] == [1]
    assert rec.events == []


def test_detail_is_key_sorted_and_canonical():
    rec = CausalRecorder(0)
    rec.emit(1, 1.0, "e", zebra=1, alpha="x", mid=[1, 2])
    (event,) = rec.events
    assert event.detail == (("alpha", "x"), ("mid", (1, 2)), ("zebra", 1))
    # Same kwargs in another order produce an equal event (same seq
    # position aside).
    other = CausalRecorder(0)
    other.emit(1, 1.0, "e", mid=(1, 2), alpha="x", zebra=1)
    assert other.events[0] == event


def test_detail_rejects_unpicklable_values():
    rec = CausalRecorder(0)
    with pytest.raises(TypeError):
        rec.emit(1, 1.0, "e", bad={"a": 1})


def test_event_field_names_usable_as_detail_keys():
    # ``kind=`` / ``t_us=`` as *detail* must not collide with the
    # emit signature (positional-only markers).
    rec = CausalRecorder(0)
    rec.emit(1, 1.0, "start", kind="warm", src="somewhere")
    assert rec.events[0].kind == "start"
    assert dict(rec.events[0].detail) == {"kind": "warm", "src": "somewhere"}


def test_trace_context_routes_to_recorder():
    rec = CausalRecorder(2)
    ctx = TraceContext(rec, inv_id=7)
    ctx.emit(3.0, "dispatch", host="host2")
    assert rec.events[0].inv_id == 7
    assert rec.events[0].src == 2


def test_document_merge_is_stable_across_emitter_packing():
    # The same per-source event streams fed to two tracers in
    # different interleavings must render identical documents.
    events = [
        TraceEvent(1, 5.0, 0, 0, "a"),
        TraceEvent(1, 5.0, ROUTER_SRC, 0, "b"),
        TraceEvent(1, 2.0, 1, 0, "c"),
        TraceEvent(2, 1.0, 0, 1, "d"),
        # A host-level record belongs to no invocation.
        TraceEvent(None, 3.0, 1, 1, "fault.crash", (("host", "host1"),)),
    ]
    one = CausalTracer()
    one.register(1, "f0", 0.0)
    one.register(2, "f1", 0.5)
    one.extend(events)
    two = CausalTracer()
    two.register(2, "f1", 0.5)
    two.register(1, "f0", 0.0)
    for event in reversed(events):
        two.extend([event])
    assert one.to_json() == two.to_json()
    doc = one.document()
    assert doc["schema"] == CAUSAL_SCHEMA
    assert invocation_kinds(doc, 1) == ["c", "b", "a"]  # (t, src, seq)
    assert [inv["inv_id"] for inv in doc["invocations"]] == [1, 2]


def test_render_invocation_is_readable():
    tracer = CausalTracer()
    tracer.register(1, "f0", 0.0)
    tracer.extend([TraceEvent(1, 1500.0, ROUTER_SRC, 0, "route", (("host", "host1"),))])
    text = render_invocation(tracer.document(), 1)
    assert "[router] route host=host1" in text
    with pytest.raises(KeyError):
        render_invocation(tracer.document(), 99)


# -- the armed cross-shard byte-identity contract -----------------------


def _storm_inputs():
    fleet = [
        FleetFunction(name=f"f{i}", profile_name="json", mean_interarrival_us=1e6)
        for i in range(3)
    ]
    arrivals = [
        Arrival(time_us=i * 100_000.0, function=f"f{i % 3}") for i in range(80)
    ]
    trace = ArrivalTrace(arrivals=arrivals, duration_us=80 * 100_000.0)
    plan = FaultPlan.from_dict(
        {
            "device_faults": [
                {
                    "scope": "*",
                    "start_us": 500_000.0,
                    "duration_us": 6_000_000.0,
                    "latency_factor": 40.0,
                    "error_rate": 0.4,
                }
            ],
            "host_crashes": [
                {
                    "host": "host1",
                    "at_us": 1_000_000.0,
                    "reboot_after_us": 2_000_000.0,
                }
            ],
            "corruptions": [
                {"host": "host2", "function": "f0", "at_us": 200_000.0}
            ],
        }
    )
    recovery = RecoveryPolicy(
        retry=RetryPolicy(enabled=True),
        hedge=HedgePolicy(
            enabled=True, min_samples=1, floor_us=5_000.0, percentile=50.0
        ),
        health=HealthPolicy(enabled=True),
        shedding=SheddingPolicy(max_queue_depth=64, degraded_queue_depth=16),
        deadline_us=30_000_000.0,
    )
    config = ClusterConfig(num_hosts=4, seed=7, recovery=recovery)
    return fleet, trace, plan, config


def _traced_run(shards):
    fleet, trace, plan, config = _storm_inputs()
    causal = CausalTracer()
    simulator = ShardedClusterSimulator(fleet, config, shards=shards)
    report = simulator.run(trace, fault_plan=plan, causal=causal)
    return report, causal


def test_cross_shard_trace_merge_is_byte_identical_under_faults():
    report1, causal1 = _traced_run(shards=1)
    report2, causal2 = _traced_run(shards=2)
    assert report1.count() == report2.count() == 80
    assert causal1.to_json() == causal2.to_json()

    doc = causal1.document()
    # Every invocation routed is in the document with its story.
    assert len(doc["invocations"]) == 80
    assert all(inv["events"] for inv in doc["invocations"])
    # The storm exercised the whole vocabulary this test defends.
    kinds = {e["kind"] for inv in doc["invocations"] for e in inv["events"]}
    assert {
        "route",
        "dispatch",
        "attempt",
        "attempt-failed",
        "retry",
        "redispatch",
        "hedge",
        "hedge-cancelled",
        "outcome",
        "phase",
    } <= kinds
    # The satellite's combined story: at least one invocation whose
    # tree contains a failed attempt, a retry, a redispatch, AND a
    # hedge pair — one request surviving both fault and tail recovery.
    combined = find_invocations(doc, "retry", "redispatch", "hedge")
    assert combined, "no invocation combined retry + redispatch + hedge"
    story = invocation_kinds(doc, combined[0])
    assert story.index("attempt-failed") < story.index("retry")
    assert "hedge-cancelled" in story


def test_causal_trace_does_not_perturb_sharded_run():
    fleet, trace, plan, config = _storm_inputs()
    plain = ShardedClusterSimulator(fleet, config, shards=2).run(
        trace, fault_plan=plan
    )
    traced, _ = _traced_run(shards=2)
    assert [
        (s.function, s.time_us, round(s.latency_us, 6)) for s in plain.served
    ] == [
        (s.function, s.time_us, round(s.latency_us, 6)) for s in traced.served
    ]


def test_single_heap_causal_trace_round_trips_through_json():
    fleet, trace, plan, config = _storm_inputs()
    causal = CausalTracer()
    ClusterSimulator(fleet, config).run(trace, fault_plan=plan, causal=causal)
    doc = json.loads(causal.to_json())
    assert doc["schema"] == CAUSAL_SCHEMA
    assert len(doc["invocations"]) == 80
    # Single-heap mode has one emitter — the scheduler itself — so
    # every event carries the router src stamp.
    srcs = {e["src"] for inv in doc["invocations"] for e in inv["events"]}
    assert srcs == {ROUTER_SRC}
    kinds = {e["kind"] for inv in doc["invocations"] for e in inv["events"]}
    assert {"dispatch", "attempt", "retry", "outcome"} <= kinds


def test_rerun_records_into_each_runs_own_tracer():
    # ``run`` promises repeatable runs: a second run of the same
    # simulator with a fresh tracer must not write into the first's.
    fleet, trace, plan, config = _storm_inputs()
    trace = ArrivalTrace(arrivals=trace.arrivals[:20], duration_us=2e6)
    simulator = ClusterSimulator(fleet, config)
    first, second = CausalTracer(), CausalTracer()
    simulator.run(trace, fault_plan=plan, causal=first)
    simulator.run(trace, fault_plan=plan, causal=second)
    assert all(inv["events"] for inv in second.document()["invocations"])
    assert first.to_json() == second.to_json()
