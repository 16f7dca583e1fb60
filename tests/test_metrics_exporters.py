"""Round-trip tests for the telemetry exporters: Prometheus text,
structured JSON, shard merging, and Chrome trace_event."""

import json

import pytest

from repro.metrics.exporters import (
    JSON_SCHEMA,
    merge_shard_snapshots,
    parse_prometheus,
    registry_snapshot,
    to_chrome_trace,
    to_json_doc,
    to_prometheus,
)
from repro.metrics.telemetry import MetricsRegistry, Sampler
from repro.metrics.tracing import Span, Tracer
from repro.sim import Environment


def populated_registry():
    registry = MetricsRegistry()
    registry.counter("host0.page_cache.hits").inc(42)
    registry.pull_counter("sim.engine.events", lambda: 1000)
    registry.gauge("host0.device.queue_depth", lambda: 3)
    hist = registry.histogram("host0.fault.time_us", [0.0, 1.0, 10.0])
    for value in (0.5, 0.7, 5.0, 100.0):
        hist.observe(value)
    registry.profiler.phase("invoke", 0.0, 50.0)
    return registry


# -- prometheus --------------------------------------------------------


def test_prometheus_round_trips_counter_values():
    registry = populated_registry()
    samples = parse_prometheus(to_prometheus(registry))
    assert samples["host0_page_cache_hits"] == 42
    assert samples["sim_engine_events"] == 1000
    assert samples["host0_device_queue_depth"] == 3


def test_prometheus_histogram_buckets_are_cumulative():
    registry = populated_registry()
    samples = parse_prometheus(to_prometheus(registry))
    # Buckets [0,1), [1,10), >=10 with counts [2, 1, 1]: the le bounds
    # are the upper edges plus +Inf, counts accumulate.
    assert samples['host0_fault_time_us_bucket{le="1.0"}'] == 2
    assert samples['host0_fault_time_us_bucket{le="10.0"}'] == 3
    assert samples['host0_fault_time_us_bucket{le="+Inf"}'] == 4
    assert samples["host0_fault_time_us_count"] == 4
    assert samples["host0_fault_time_us_sum"] == pytest.approx(106.2)


def test_prometheus_type_lines_present():
    text = to_prometheus(populated_registry())
    assert "# TYPE host0_page_cache_hits counter" in text
    assert "# TYPE host0_device_queue_depth gauge" in text
    assert "# TYPE host0_fault_time_us histogram" in text


def test_prometheus_name_sanitization():
    registry = MetricsRegistry()
    registry.counter("2nd.host-a.hits").inc(1)
    samples = parse_prometheus(to_prometheus(registry))
    assert samples["_2nd_host_a_hits"] == 1


# -- structured JSON ---------------------------------------------------


def test_json_doc_is_serializable_with_schema():
    registry = populated_registry()
    env = Environment()
    sampler = Sampler(registry, env, interval_us=10.0)
    sampler.sample()
    doc = to_json_doc(registry, sampler=sampler, total_us=50.0)
    parsed = json.loads(json.dumps(doc))
    assert parsed["schema"] == JSON_SCHEMA
    assert parsed["virtual_time_us"] == 50.0
    assert parsed["profile_attributed_us"] == 50.0
    assert parsed["counters"]["host0.page_cache.hits"] == 42
    assert parsed["histograms"]["host0.fault.time_us"]["count"] == 4
    assert parsed["profile"]["phase.invoke"]["time_us"] == 50.0
    assert parsed["samples"]["gauges"]["host0.device.queue_depth"] == [3]


def test_merge_shard_snapshots_sums_everything_but_gauges():
    def shard(hits, virtual_us):
        registry = MetricsRegistry()
        registry.counter("hits").inc(hits)
        registry.gauge("depth", lambda: 9)
        registry.histogram("h", [0.0, 1.0]).observe(0.5)
        registry.profiler.phase("invoke", 0.0, virtual_us)
        snapshot = registry_snapshot(registry)
        snapshot["virtual_time_us"] = virtual_us
        return snapshot

    merged = merge_shard_snapshots([shard(2, 10.0), shard(5, 20.0)])
    assert merged["shards"] == 2
    assert merged["counters"]["hits"] == 7
    assert merged["virtual_time_us"] == 30.0
    assert merged["histograms"]["h"]["counts"] == [2, 0]
    assert merged["profile"]["phase.invoke"]["time_us"] == 30.0
    assert "gauges" not in merged  # instantaneous, meaningless summed


def test_merge_rejects_mismatched_histogram_edges():
    a = {"histograms": {"h": {"edges": [0.0, 1.0], "counts": [1, 0], "count": 1, "sum": 0.5}}}
    b = {"histograms": {"h": {"edges": [0.0, 2.0], "counts": [1, 0], "count": 1, "sum": 0.5}}}
    with pytest.raises(ValueError):
        merge_shard_snapshots([a, b])


# -- chrome trace ------------------------------------------------------

REQUIRED_KEYS = {"ph", "ts", "dur", "pid", "tid", "name"}


def test_chrome_trace_has_required_keys():
    tracer = Tracer()
    root = Span(name="invocation", start_us=0.0, end_us=100.0)
    root.children.append(Span(name="setup", start_us=0.0, end_us=40.0))
    tracer.roots.append(root)
    doc = to_chrome_trace(tracer)
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    assert len(events) == 2
    for event in events:
        assert REQUIRED_KEYS <= set(event)
        assert event["ph"] == "X"
    (invocation, setup) = events
    assert invocation["name"] == "invocation"
    assert invocation["dur"] == 100.0
    assert setup["ts"] == 0.0 and setup["dur"] == 40.0
    json.dumps(doc)  # must be serializable as-is


def test_chrome_trace_groups_pids_by_host_and_tids_by_root():
    tracer = Tracer()
    a = Span(name="a", start_us=0.0, end_us=10.0, tags={"host": "host1"})
    b = Span(name="b", start_us=5.0, end_us=15.0, tags={"host": "host0"})
    a.children.append(Span(name="a.child", start_us=1.0, end_us=2.0))
    tracer.roots.extend([a, b])
    events = {e["name"]: e for e in to_chrome_trace(tracer)["traceEvents"]}
    # pids follow sorted host-name order (stable across shard counts
    # and span completion order); children inherit the parent's.
    assert events["a"]["pid"] == 1
    assert events["b"]["pid"] == 0
    assert events["a.child"]["pid"] == 1
    assert events["a"]["tid"] == 0
    assert events["b"]["tid"] == 1
    assert events["a.child"]["tid"] == 0
    assert events["a"]["args"]["host"] == "host1"


# -- fleet serving-report document ------------------------------------


def make_fleet_report():
    from repro.fleet.scheduler import (
        FleetReport,
        InvocationOutcome,
        ServedInvocation,
        StartKind,
    )

    return FleetReport(
        served=[
            ServedInvocation(
                time_us=0.0,
                function="f0",
                kind=StartKind.SNAPSHOT,
                latency_us=200_000.0,
            ),
            ServedInvocation(
                time_us=1.0,
                function="f1",
                kind=StartKind.WARM,
                latency_us=100_000.0,
                outcome=InvocationOutcome.RETRIED,
                attempts=2,
            ),
            ServedInvocation(
                time_us=2.0,
                function="f0",
                kind=None,
                latency_us=0.0,
                outcome=InvocationOutcome.SHED,
                attempts=0,
            ),
        ]
    )


def test_fleet_report_doc_structure():
    from repro.metrics.exporters import REPORT_SCHEMA, fleet_report_doc

    doc = fleet_report_doc(make_fleet_report())
    assert doc["schema"] == REPORT_SCHEMA
    assert len(doc["invocations"]) == 3
    first = doc["invocations"][0]
    assert first["outcome"] == "ok"
    assert first["kind"] == "snapshot"
    assert first["attempts"] == 1
    shed = doc["invocations"][2]
    assert shed["outcome"] == "shed"
    assert shed["kind"] is None
    assert doc["outcome_counts"] == {
        "ok": 1, "retried": 1, "hedge-won": 0, "shed": 1, "failed": 0,
    }
    assert doc["availability"] == pytest.approx(2 / 3)
    assert doc["total_attempts"] == 3
    assert doc["retry_amplification"] == pytest.approx(1.0)
    # Latency statistics cover only the successfully served arrivals.
    assert doc["mean_latency_us"] == pytest.approx(150_000.0)
    json.dumps(doc)  # must be serializable as-is


def test_fleet_report_doc_includes_host_stats_for_clusters():
    from repro.cluster.scheduler import ClusterReport, HostStats
    from repro.metrics.exporters import fleet_report_doc

    report = ClusterReport(
        host_stats={
            "host0": HostStats(host="host0", failures=2, shed=1),
            "host1": HostStats(host="host1"),
        }
    )
    doc = fleet_report_doc(report)
    assert doc["host_failures"] == {"host0": 2, "host1": 0}
    assert doc["host_shed"] == {"host0": 1, "host1": 0}
