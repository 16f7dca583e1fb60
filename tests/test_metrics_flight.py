"""Flight recorder: ring bounding, dump retention, trigger
accounting, and the scheduler integration that dumps postmortems on
failures, crashes, and burn-rate alerts."""

import json

import pytest

from repro.metrics.flight import (
    CLUSTER_RING,
    FLIGHT_SCHEMA,
    FlightRecorder,
    render_postmortem,
)


def test_ring_is_bounded_per_host():
    recorder = FlightRecorder(capacity_per_host=3)
    for i in range(10):
        recorder.record(float(i), "host0", "tick", n=i)
    recorder.record(99.0, "host1", "other")
    doc = recorder.document()
    assert [e["n"] for e in doc["rings"]["host0"]] == [7, 8, 9]
    assert len(doc["rings"]["host1"]) == 1
    assert recorder.recorded == 11


def test_dump_snapshots_all_rings_with_context():
    recorder = FlightRecorder()
    recorder.record(1.0, "host0", "shed", load=9)
    recorder.record(2.0, CLUSTER_RING, "alert", rule="fast")
    postmortem = recorder.dump(3.0, "invocation-failed", function="f0")
    assert postmortem["reason"] == "invocation-failed"
    assert postmortem["context"] == {"function": "f0"}
    assert sorted(postmortem["rings"]) == [CLUSTER_RING, "host0"]
    # The snapshot is a copy: later records don't mutate it.
    recorder.record(4.0, "host0", "later")
    assert len(postmortem["rings"]["host0"]) == 1


def test_dump_cap_keeps_first_n_but_counts_every_trigger():
    recorder = FlightRecorder(max_postmortems=2)
    assert recorder.dump(1.0, "a") is not None
    assert recorder.dump(2.0, "b") is not None
    assert recorder.dump(3.0, "c") is None
    assert [p["reason"] for p in recorder.postmortems] == ["a", "b"]
    assert recorder.dump_triggers == 3
    assert recorder.document()["postmortems_retained"] == 2


def test_constructor_validation():
    with pytest.raises(ValueError):
        FlightRecorder(capacity_per_host=0)
    with pytest.raises(ValueError):
        FlightRecorder(max_postmortems=0)


def test_document_round_trips_through_json():
    recorder = FlightRecorder()
    recorder.record(1.5, "host0", "retry", round=2)
    recorder.dump(2.0, "host-crashed", host="host0")
    doc = json.loads(recorder.to_json())
    assert doc["schema"] == FLIGHT_SCHEMA
    assert doc["recorded"] == 1
    assert doc["postmortems"][0]["context"] == {"host": "host0"}


def test_render_postmortem_is_readable():
    recorder = FlightRecorder()
    recorder.record(1_000.0, "host0", "shed", load=9)
    postmortem = recorder.dump(2_000.0, "invocation-failed", function="f7")
    text = render_postmortem(postmortem)
    assert "invocation-failed" in text
    assert "function: f7" in text
    assert "shed load=9" in text


# -- scheduler integration ---------------------------------------------


def _storm_run(flight, slo=None, causal=None):
    from repro.cluster import ClusterConfig, ClusterSimulator
    from repro.faults import FaultPlan, RecoveryPolicy
    from repro.fleet.workload import Arrival, ArrivalTrace, FleetFunction

    fleet = [
        FleetFunction(name=f"f{i}", profile_name="json", mean_interarrival_us=1e6)
        for i in range(3)
    ]
    arrivals = [
        Arrival(time_us=i * 120_000.0, function=f"f{i % 3}") for i in range(60)
    ]
    trace = ArrivalTrace(arrivals=arrivals, duration_us=60 * 120_000.0)
    plan = FaultPlan.from_dict(
        {
            "device_faults": [
                {
                    "scope": "*",
                    "start_us": 500_000.0,
                    "duration_us": 3_000_000.0,
                    "latency_factor": 40.0,
                    "error_rate": 0.6,
                }
            ],
            "host_crashes": [
                {
                    "host": "host1",
                    "at_us": 1_000_000.0,
                    "reboot_after_us": 2_000_000.0,
                }
            ],
        }
    )
    config = ClusterConfig(
        num_hosts=4, seed=7, recovery=RecoveryPolicy.full()
    )
    return ClusterSimulator(fleet, config).run(
        trace, fault_plan=plan, slo=slo, flight=flight, causal=causal
    )


def test_storm_run_dumps_postmortems_without_perturbation():
    flight = FlightRecorder()
    report = _storm_run(flight)
    plain = _storm_run(None)
    assert flight.recorded > 0
    assert flight.dump_triggers > 0
    assert flight.postmortems, "storm produced no postmortem"
    reasons = {p["reason"] for p in flight.postmortems}
    assert "host-crash" in reasons
    # Zero perturbation: identical served stream with and without.
    assert [round(s.latency_us, 6) for s in report.served] == [
        round(s.latency_us, 6) for s in plain.served
    ]


def test_burn_rate_alert_triggers_a_dump():
    from repro.metrics.slo import SloMonitor

    flight = FlightRecorder()
    slo = SloMonitor.default()
    _storm_run(flight, slo=slo)
    assert slo.alerts, "storm did not fire a burn-rate alert"
    alert_dumps = [
        p for p in flight.postmortems if p["reason"] == "burn-rate-alert"
    ]
    assert alert_dumps
    assert alert_dumps[0]["context"]["alert"]["objective"] in {
        o.name for o in slo.objectives
    }


def test_flight_rings_are_views_of_the_causal_records():
    from repro.metrics.causal import CausalTracer

    causal = CausalTracer()
    both = FlightRecorder()
    _storm_run(both, causal=causal)
    only = FlightRecorder()
    _storm_run(only)
    # The rings show the same records with or without a causal tracer,
    # so a flight-only run dumps the same postmortems.
    assert [(p["t_us"], p["reason"]) for p in only.postmortems] == [
        (p["t_us"], p["reason"]) for p in both.postmortems
    ]
    assert only.dump_triggers == both.dump_triggers
    assert only.to_json() == both.to_json()
    # Every ring entry of an invocation is one of its causal events.
    recorded = {
        (inv["inv_id"], round(e["t_us"], 3), e["kind"])
        for inv in causal.document()["invocations"]
        for e in inv["events"]
    }
    entries = [
        (e["inv_id"], e["t_us"], e["kind"])
        for ring in both.document()["rings"].values()
        for e in ring
        if "inv_id" in e
    ]
    assert entries
    assert set(entries) <= recorded
