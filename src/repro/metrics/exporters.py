"""Exporters for the telemetry registry and span traces.

Three output formats, all derived from live objects without mutating
them:

* :func:`to_prometheus` — Prometheus text exposition (counters,
  gauges, and histograms with cumulative ``le`` buckets);
* :func:`registry_snapshot` / :func:`to_json_doc` — structured JSON
  for machine consumption (the ``--metrics-out`` document);
* :func:`to_chrome_trace` — Chrome ``trace_event`` JSON derived from
  a :class:`~repro.metrics.tracing.Tracer`'s span trees (each a view
  of one invocation's result), loadable in ``chrome://tracing`` /
  Perfetto (the ``--chrome-trace`` document).

:func:`parse_prometheus` exists for round-trip testing, and
:func:`merge_shard_snapshots` folds the per-shard snapshots a forked
experiment run returns into one cumulative view.
:func:`canonical_sha256` fingerprints any JSON document — the
service journal's digest extensions and the perf harness's parity
cells use it.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Any, Dict, List, Optional

from repro.metrics.telemetry import MetricsRegistry, Sampler
from repro.metrics.tracing import Span, Tracer


def canonical_json(doc: Any) -> str:
    """``doc`` as canonical JSON: sorted keys, no whitespace."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def canonical_sha256(doc: Any) -> str:
    """SHA-256 hex digest of :func:`canonical_json` — equal for equal
    documents however their dicts were built."""
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


_PROM_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")

#: Version tag stamped into the JSON document.
JSON_SCHEMA = "repro.telemetry/1"


def _prom_name(name: str) -> str:
    """Sanitize a dotted instrument name for Prometheus exposition."""
    sanitized = _PROM_NAME_RE.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _prom_value(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def to_prometheus(registry: MetricsRegistry) -> str:
    """Prometheus text exposition of every instrument."""
    lines: List[str] = []
    for name, inst in registry.counters():
        pname = _prom_name(name)
        lines.append(f"# TYPE {pname} counter")
        lines.append(f"{pname} {_prom_value(inst.read())}")
    for name, inst in registry.gauges():
        pname = _prom_name(name)
        lines.append(f"# TYPE {pname} gauge")
        lines.append(f"{pname} {_prom_value(inst.read())}")
    for name, inst in registry.histograms():
        pname = _prom_name(name)
        lines.append(f"# TYPE {pname} histogram")
        histogram = inst.histogram
        cumulative = 0
        # Bucket i covers [edges[i], edges[i+1]), so the cumulative
        # "observations <= bound" sample for bound edges[i+1] includes
        # buckets 0..i; the open-ended last bucket only joins +Inf.
        for i, upper in enumerate(histogram.edges[1:]):
            cumulative += histogram.counts[i]
            lines.append(
                f'{pname}_bucket{{le="{_prom_value(float(upper))}"}} '
                f"{cumulative}"
            )
        lines.append(f'{pname}_bucket{{le="+Inf"}} {histogram.total}')
        lines.append(f"{pname}_sum {_prom_value(inst.sum)}")
        lines.append(f"{pname}_count {histogram.total}")
    return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> Dict[str, float]:
    """Parse exposition text back to ``{sample name: value}`` (labels
    kept inline in the name). For round-trip tests, not a full
    parser."""
    samples: Dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, value = line.rsplit(" ", 1)
        samples[name] = float(value)
    return samples


def registry_snapshot(registry: MetricsRegistry) -> Dict[str, Any]:
    """The registry plus its profiler as one plain dict — picklable,
    so experiment shards can send it across the fork boundary."""
    snapshot = registry.collect()
    snapshot["profile"] = registry.profiler.as_dict()
    return snapshot


def to_json_doc(
    registry: MetricsRegistry,
    sampler: Optional[Sampler] = None,
    total_us: Optional[float] = None,
) -> Dict[str, Any]:
    """The full ``--metrics-out`` JSON document."""
    doc: Dict[str, Any] = {"schema": JSON_SCHEMA}
    if total_us is not None:
        doc["virtual_time_us"] = total_us
        doc["profile_attributed_us"] = registry.profiler.attributed_us()
    doc.update(registry_snapshot(registry))
    if sampler is not None:
        doc["samples"] = sampler.as_dict()
    return doc


def merge_shard_snapshots(
    snapshots: List[Dict[str, Any]]
) -> Dict[str, Any]:
    """Fold per-shard :func:`registry_snapshot` dicts (each tagged
    with its shard's ``virtual_time_us``) into one cumulative view.

    Counters, histogram counts (matching edges required), profile
    time/events, and virtual time sum; gauges are instantaneous
    per-shard state with no meaningful cross-shard aggregate, so they
    are dropped.

    Key order in the merged maps is sorted by instrument name, *not*
    first-seen order: different shard counts register instruments in
    different orders, and the sharded cluster's determinism contract
    compares merged snapshots for exact equality (including
    serialisation order).
    """
    merged: Dict[str, Any] = {
        "schema": JSON_SCHEMA,
        "shards": len(snapshots),
        "virtual_time_us": 0.0,
        "counters": {},
        "histograms": {},
        "profile": {},
    }
    for snapshot in snapshots:
        merged["virtual_time_us"] += snapshot.get("virtual_time_us", 0.0)
        for name, value in snapshot.get("counters", {}).items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
        for name, hist in snapshot.get("histograms", {}).items():
            existing = merged["histograms"].get(name)
            if existing is None:
                merged["histograms"][name] = {
                    "edges": list(hist["edges"]),
                    "counts": list(hist["counts"]),
                    "count": hist["count"],
                    "sum": hist["sum"],
                }
            else:
                if existing["edges"] != list(hist["edges"]):
                    raise ValueError(
                        f"histogram {name!r} has mismatched edges across shards"
                    )
                existing["counts"] = [
                    a + b for a, b in zip(existing["counts"], hist["counts"])
                ]
                existing["count"] += hist["count"]
                existing["sum"] += hist["sum"]
        for name, stat in snapshot.get("profile", {}).items():
            existing = merged["profile"].setdefault(
                name, {"time_us": 0.0, "events": 0}
            )
            existing["time_us"] += stat["time_us"]
            existing["events"] += stat["events"]
    for key in ("counters", "histograms", "profile"):
        merged[key] = dict(sorted(merged[key].items()))
    return merged


#: Version tag for incremental delta documents.
DELTA_SCHEMA = "repro.telemetry-delta/1"


class DeltaExporter:
    """Incremental registry export: each :meth:`delta` call returns
    only what changed since the previous call.

    Counters and histograms report *increments* (monotonic streams, so
    a consumer sums deltas to recover totals); gauges are
    instantaneous and always report their current value. Keys are
    sorted and unchanged counters/histograms are omitted, so the
    document is canonical: two identical runs snapshotting at the same
    virtual instants produce byte-identical delta streams — the
    property the service journal's telemetry digests pin.
    """

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self._sequence = 0
        self._last_counters: Dict[str, Any] = {}
        self._last_histograms: Dict[str, Any] = {}

    def delta(self, now_us: Optional[float] = None) -> Dict[str, Any]:
        self._sequence += 1
        doc: Dict[str, Any] = {
            "schema": DELTA_SCHEMA,
            "sequence": self._sequence,
        }
        if now_us is not None:
            doc["virtual_time_us"] = now_us
        counters: Dict[str, Any] = {}
        for name, inst in self.registry.counters():
            value = inst.read()
            previous = self._last_counters.get(name, 0)
            if value != previous:
                counters[name] = value - previous
            self._last_counters[name] = value
        gauges: Dict[str, Any] = {
            name: inst.read() for name, inst in self.registry.gauges()
        }
        histograms: Dict[str, Any] = {}
        for name, inst in self.registry.histograms():
            histogram = inst.histogram
            counts = list(histogram.counts)
            state = (counts, histogram.total, inst.sum)
            previous = self._last_histograms.get(name)
            if previous is None:
                previous = ([0] * len(counts), 0, 0.0)
            if state[1] != previous[1] or state[2] != previous[2]:
                histograms[name] = {
                    "edges": list(histogram.edges),
                    "counts": [
                        a - b for a, b in zip(counts, previous[0])
                    ],
                    "count": state[1] - previous[1],
                    "sum": state[2] - previous[2],
                }
            self._last_histograms[name] = state
        doc["counters"] = dict(sorted(counters.items()))
        doc["gauges"] = dict(sorted(gauges.items()))
        doc["histograms"] = dict(sorted(histograms.items()))
        return doc


#: Version tag for the serving-report document.
REPORT_SCHEMA = "repro.fleet-report/1"


def fleet_report_doc(report) -> Dict[str, Any]:
    """JSON document for a :class:`~repro.fleet.scheduler.FleetReport`
    (or :class:`~repro.cluster.scheduler.ClusterReport`): every served
    invocation with its :class:`InvocationOutcome` and attempt count,
    plus the availability/amplification summary. Deterministic for a
    given run — no wall-clock anywhere."""
    doc: Dict[str, Any] = {
        "schema": REPORT_SCHEMA,
        "invocations": [s.to_dict() for s in report.served],
        "outcome_counts": report.outcome_counts(),
        "availability": report.availability(),
        "total_attempts": report.total_attempts(),
        "retry_amplification": report.retry_amplification(),
        "mean_latency_us": report.mean_latency_us(),
        "p99_latency_us": report.latency_percentile(99),
    }
    host_stats = getattr(report, "host_stats", None)
    if host_stats:
        doc["host_failures"] = {
            host: stats.failures for host, stats in sorted(host_stats.items())
        }
        doc["host_shed"] = {
            host: stats.shed for host, stats in sorted(host_stats.items())
        }
    fault_summary = getattr(report, "fault_summary", None)
    if fault_summary:
        # Includes the durability split: corruptions caught at restore
        # time vs by the background scrubber, plus silent serves.
        doc["faults"] = dict(sorted(fault_summary.items()))
    return doc


# -- Chrome trace_event ------------------------------------------------


def _span_hosts(span: Span, hosts: set) -> None:
    host = span.tags.get("host")
    if host is not None:
        hosts.add(host)
    for child in span.children:
        _span_hosts(child, hosts)


def _span_events(
    span: Span,
    pid: Any,
    tid: int,
    pids: Dict[str, int],
    events: List[Dict[str, Any]],
) -> None:
    host = span.tags.get("host")
    if host is not None:
        pid = pids[host]
    event: Dict[str, Any] = {
        "ph": "X",
        "name": span.name,
        "cat": "sim",
        "ts": span.start_us,
        "dur": span.end_us - span.start_us,
        "pid": pid,
        "tid": tid,
    }
    args: Dict[str, Any] = {}
    if span.tags:
        args.update(span.tags)
    if span.annotations:
        args["annotations"] = list(span.annotations)
    if args:
        event["args"] = args
    events.append(event)
    for child in span.children:
        _span_events(child, event["pid"], tid, pids, events)


def to_chrome_trace(tracer: Tracer) -> Dict[str, Any]:
    """Chrome ``trace_event`` JSON object from a tracer's span trees.

    Every span becomes a complete ("X") event with microsecond
    ``ts``/``dur``. The process id groups spans by their ``host`` tag
    — one pid per host, assigned in *sorted host-name order* so the
    pid layout is a pure function of which hosts appear, not of
    which host happened to finish a span first. The thread id groups
    each root span's whole tree, so concurrent invocations render as
    parallel tracks.
    """
    hosts: set = set()
    for root in tracer.roots:
        _span_hosts(root, hosts)
    pids = {host: pid for pid, host in enumerate(sorted(hosts))}
    events: List[Dict[str, Any]] = []
    for tid, root in enumerate(tracer.roots):
        _span_events(root, len(pids), tid, pids, events)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def causal_to_chrome_trace(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Chrome ``trace_event`` JSON from a causal-trace document.

    This is the shard-safe ``--chrome-trace`` path: every id is a
    pure function of the (already shard-invariant) causal document —
    pid = host in sorted order (router last), tid = invocation id,
    event ``id`` = ``inv:src:seq`` — so the export diffs clean
    between ``shards=1`` and ``shards=N``. ``phase`` events (the
    restore-phase records) become complete ("X") slices; everything
    else becomes an instant ("i") event on the invocation's track.
    """
    hosts: set = set()
    for inv in doc["invocations"]:
        for event in inv["events"]:
            host = event["detail"].get("host")
            if isinstance(host, str):
                hosts.add(host)
    pids = {host: pid for pid, host in enumerate(sorted(hosts))}
    router_pid = len(pids)
    events: List[Dict[str, Any]] = []
    for inv in doc["invocations"]:
        tid = inv["inv_id"]
        last_host_pid = router_pid
        for event in inv["events"]:
            detail = event["detail"]
            host = detail.get("host")
            if isinstance(host, str):
                last_host_pid = pids[host]
                pid = last_host_pid
            elif event["src"] >= 0:
                pid = last_host_pid
            else:
                pid = router_pid
            out: Dict[str, Any] = {
                "name": (
                    detail["name"]
                    if event["kind"] == "phase"
                    else event["kind"]
                ),
                "cat": "causal",
                "ts": event["t_us"],
                "pid": pid,
                "tid": tid,
                "id": f"{tid}:{event['src']}:{event['seq']}",
                "args": {k: v for k, v in sorted(detail.items())},
            }
            if event["kind"] == "phase":
                out["ph"] = "X"
                out["dur"] = detail.get("duration_us") or 0.0
            else:
                out["ph"] = "i"
                out["s"] = "t"
            events.append(out)
    return {"traceEvents": events, "displayTimeUnit": "ms"}
