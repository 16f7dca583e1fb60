"""Measurement helpers: statistics, telemetry, tracing, exporters.

Stands in for the paper's bpftrace/perf tooling (§3.1, §6.4): the
simulation already records every fault, so this package only
aggregates — log-scale histograms for Figure 2, mean/std summaries
for the execution-time figures, fixed-width text tables the benchmark
harness prints, plus the unified telemetry layer (typed instruments
in a :class:`MetricsRegistry`, a virtual-time :class:`Sampler`, a
sim-kernel :class:`Profiler`) and its Prometheus/JSON/Chrome-trace
exporters.
"""

from repro.metrics.stats import (
    Histogram,
    fault_time_histogram,
    geometric_mean,
    mean,
    stddev,
)
from repro.metrics.report import render_table
from repro.metrics.telemetry import (
    Counter,
    Gauge,
    HistogramInstrument,
    HostTelemetry,
    MetricsRegistry,
    Profiler,
    PullCounter,
    Sampler,
    render_run_report,
)
from repro.metrics.exporters import (
    causal_to_chrome_trace,
    merge_shard_snapshots,
    parse_prometheus,
    registry_snapshot,
    to_chrome_trace,
    to_json_doc,
    to_prometheus,
)
from repro.metrics.causal import (
    CausalRecorder,
    CausalTracer,
    TraceContext,
    TraceEvent,
)
from repro.metrics.slo import (
    BurnRateRule,
    SloMonitor,
    SloObjective,
    render_slo_status,
)
from repro.metrics.flight import FlightRecorder

__all__ = [
    "BurnRateRule",
    "CausalRecorder",
    "CausalTracer",
    "Counter",
    "FlightRecorder",
    "SloMonitor",
    "SloObjective",
    "TraceContext",
    "TraceEvent",
    "causal_to_chrome_trace",
    "Gauge",
    "Histogram",
    "HistogramInstrument",
    "HostTelemetry",
    "MetricsRegistry",
    "Profiler",
    "PullCounter",
    "Sampler",
    "fault_time_histogram",
    "geometric_mean",
    "mean",
    "merge_shard_snapshots",
    "parse_prometheus",
    "registry_snapshot",
    "render_run_report",
    "render_slo_status",
    "render_table",
    "stddev",
    "to_chrome_trace",
    "to_json_doc",
    "to_prometheus",
]
