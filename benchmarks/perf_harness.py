#!/usr/bin/env python3
"""Determinism harness and the repository's throughput gate.

Usage:

    python benchmarks/perf_harness.py --smoke      # exact pins
    python benchmarks/perf_harness.py --parity     # determinism matrix
    python benchmarks/perf_harness.py --check      # --smoke + --parity
    python benchmarks/perf_harness.py --smoke --update   # re-pin
    python benchmarks/perf_harness.py --perfbench OUT...  # throughput gate
    python benchmarks/perf_harness.py --perfbench OUT... --update
    python benchmarks/perf_harness.py --figures fig6 fig8   # time figures

``--smoke`` runs a fixed, deterministic workload — a slice of the
paper's Figure 1 and Figure 8 grids covering every restore policy and
both the batching fast path and the event-driven machinery — and the
4-host cluster smoke, and checks them exactly against the pins in
``BENCH_core.json`` (next to this file): the dispatched heap-event
counts of the record phases and of the invocations, and the cluster's
invocation count and latency checksum. A change in any means
simulated behaviour changed. It times nothing.
``--update`` rewrites the pins.

``--parity`` runs :data:`PARITY_MATRIX`, the determinism contract as
one table of rows; a failing row names the first digest component
that diverged, and ``--report-out`` writes every cell's digest. Under
``--check`` the plain cluster smoke runs once, as both the ``--smoke``
measurement and the matrix's reference cell.

``--perfbench`` is the throughput gate. Each OUT is the stdout of one
``perfbench/run.py --trace 0`` run, whose host times are scaled to a
reference CPU speed, so a slow box reads about what a fast one does.
The gate fails when a run is not ``correct``, ran another seed than
its baseline, has no baseline, or reads an end-to-end metric of the
``perfbench`` section of ``BENCH_core.json`` worse than the baseline
by more than that metric's ``bound`` in ``BENCHMARK.json``. It also
prints an ``info:`` line for each of :data:`INFO_METRICS` against its
baseline, which never fails. With ``--update`` it records, per
workload, the median of the runs given of every one of these metrics.

``--figures`` regenerates whole experiments and reports wall-clock per
experiment; with ``--update`` the timings are recorded in the
baseline's ``experiments`` section as an informational perf
trajectory (not gated — full figures are too slow for CI).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import re
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.policies import MAIN_POLICIES, Policy  # noqa: E402
from repro.experiments.common import fresh_platform, measure  # noqa: E402
from repro.metrics.exporters import (  # noqa: E402
    canonical_json,
    canonical_sha256,
)
from repro.service.journal import (  # noqa: E402
    DIGEST_COMPONENTS,
    first_mismatch,
)
from repro.workloads.base import INPUT_A, InputSpec  # noqa: E402

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_core.json"
BENCHMARK_PATH = REPO_ROOT / "BENCHMARK.json"

#: (function, size ratio) cells; every MAIN policy runs on each.
SMOKE_CELLS = [
    ("json", 1.0),
    ("json", 4.0),
    ("image", 0.5),
    ("chameleon", 2.0),
]


def run_workload(cells) -> dict:
    """Run the workload on one fresh platform; return its counts: the
    heap events the record phases and the invocations dispatched, and
    the cells measured."""
    functions = tuple(dict.fromkeys(name for name, _ in cells))
    platform, handles = fresh_platform(functions=functions)
    env = platform.env
    counts = {"record_events": 0, "invocation_events": 0, "cells": 0}
    for name, ratio in cells:
        spec = InputSpec(content_id=9, size_ratio=ratio)
        for policy in (*MAIN_POLICIES, Policy.WARM):
            # The invocation reuses the record run here.
            before = env.events_processed
            platform.ensure_record(handles[name], INPUT_A, policy)
            recorded = env.events_processed
            measure(platform, handles[name], policy, spec, INPUT_A)
            counts["record_events"] += recorded - before
            counts["invocation_events"] += env.events_processed - recorded
            counts["cells"] += 1
    return counts


#: The cluster entries, each one fleet trace served on page-level
#: hosts; ``invocations`` and the latency checksum are deterministic
#: (exact-gated). ``CLUSTER_SMOKE`` is the 4-host single-heap smoke.
#: ``SHARDED_SMOKE`` runs at shards=1 and shards=2 in the parity
#: matrix; its latency checksum is shard-count-invariant by the
#: determinism contract, so one pin gates both.
CLUSTER_SMOKE = {
    "hosts": 4,
    "functions": 8,
    "seed": 7,
    "duration_us": 120_000_000.0,
    "hot_interarrival_us": 5_000_000.0,
    "cold_interarrival_us": 60_000_000.0,
}

SHARDED_SMOKE = {
    "hosts": 8,
    "functions": 8,
    "shards": 2,
    "seed": 7,
    "duration_us": 60_000_000.0,
    "hot_interarrival_us": 2_000_000.0,
    "cold_interarrival_us": 60_000_000.0,
}

#: The components every cluster pin and feature row compares.
CLUSTER_COMPONENTS = ("invocations", "latency_checksum_us")


def _entry_inputs(entry: dict, **config_fields):
    """The fleet, arrival trace and cluster config of one entry."""
    from repro.cluster import ClusterConfig
    from repro.fleet.workload import generate_arrivals, synthesize_fleet

    fleet = synthesize_fleet(
        entry["functions"],
        seed=entry["seed"],
        profile_names=("json", "pyaes"),
        hot_interarrival_us=entry["hot_interarrival_us"],
        cold_interarrival_us=entry["cold_interarrival_us"],
    )
    trace = generate_arrivals(
        fleet, duration_us=entry["duration_us"], seed=entry["seed"]
    )
    config = ClusterConfig(
        num_hosts=entry["hosts"],
        placement="least-loaded",
        keep_alive_ttl_us=30_000_000.0,
        **config_fields,
    )
    return fleet, trace, config


def _served(report) -> dict:
    """The exact-gated outcome of a run."""
    return {
        "invocations": report.count(),
        "latency_checksum_us": round(
            sum(s.latency_us for s in report.served), 3
        ),
    }


def run_cluster_workload(
    sampler_interval_us=None,
    fault_plan=None,
    observability=False,
    durability=None,
) -> dict:
    """Serve ``CLUSTER_SMOKE`` on the single-heap cluster scheduler.

    The arguments are the parity matrix's feature switches, none of
    which may change a result: ``sampler_interval_us`` turns on the
    telemetry gauge sampler; ``fault_plan`` (a ``FaultPlan`` document)
    routes serving through the fault-injection machinery;
    ``observability`` attaches the causal tracer, SLO monitor and
    flight recorder; ``durability`` (a ``DurabilityPolicy`` document)
    configures the durability plane.
    """
    from repro.cluster import ClusterSimulator
    from repro.faults import DurabilityPolicy, FaultPlan

    config_fields = {}  # no document: no policy, the default untouched
    if durability is not None:
        config_fields["durability"] = DurabilityPolicy.from_dict(durability)
    fleet, trace, config = _entry_inputs(CLUSTER_SMOKE, **config_fields)
    causal = slo = flight = None
    if observability:
        from repro.metrics.causal import CausalTracer
        from repro.metrics.flight import FlightRecorder
        from repro.metrics.slo import SloMonitor

        causal = CausalTracer()
        slo = SloMonitor.default()
        flight = FlightRecorder()
    report = ClusterSimulator(fleet, config).run(
        trace,
        sampler_interval_us=sampler_interval_us,
        fault_plan=(
            FaultPlan.from_dict(fault_plan) if fault_plan is not None else None
        ),
        causal=causal,
        slo=slo,
        flight=flight,
    )
    out = _served(report)
    if observability:
        out["causal_events"] = len(causal.all_events())
        out["slo_alerts"] = len(slo.alerts)
        out["flight_recorded"] = flight.recorded
    return out


def run_sharded_cluster_workload(entry: dict, shards: int) -> tuple:
    """Serve one sharded-cluster entry; return its metrics and its
    merged cross-shard telemetry.

    The workload is fully determined by ``entry`` — ``shards`` only
    picks the execution topology, so invocations and the latency
    checksum must not depend on it.
    """
    from repro.cluster import ShardedClusterSimulator

    fleet, trace, config = _entry_inputs(entry)
    simulator = ShardedClusterSimulator(fleet, config, shards=shards)
    report = simulator.run(trace)
    return {
        "hosts": entry["hosts"],
        "shards": simulator.shards,
        "windows": simulator.windows_run,
        **_served(report),
    }, simulator.merged_metrics


def _pin_fails(what: str, pinned: dict, metrics: dict, components) -> bool:
    """Print a FAIL line when ``metrics`` leaves its committed pin."""
    mismatch = first_mismatch(pinned, metrics, components)
    if mismatch is not None:
        print(
            f"FAIL: {what} {mismatch['field']} {mismatch['actual']} != "
            f"baseline {mismatch['expected']} — simulated behaviour changed",
            file=sys.stderr,
        )
    return mismatch is not None


def run_smoke(baseline: dict, update: bool) -> Tuple[int, dict]:
    """Run the kernel and cluster smokes and check them against their
    pins; with ``update``, pin them (and the sharded entry) in
    ``baseline`` instead. Returns the status and the cluster smoke's
    metrics."""
    kernel = run_workload(SMOKE_CELLS)
    for key, value in kernel.items():
        print(f"{key:>17}: {value}")
    cluster = run_cluster_workload()
    for key, value in cluster.items():
        print(f"{'cluster.' + key:>28}: {value}")
    if update:
        sharded, _ = run_sharded_cluster_workload(
            SHARDED_SMOKE, shards=SHARDED_SMOKE["shards"]
        )
        baseline["smoke"] = kernel
        baseline["cluster"] = {"hosts": CLUSTER_SMOKE["hosts"], **cluster}
        baseline.setdefault("cluster_sharded", {})["smoke"] = sharded
        return 0, cluster
    failed = [
        _pin_fails(
            "kernel",
            baseline.get("smoke", {}),
            kernel,
            ("record_events", "invocation_events"),
        ),
        _pin_fails(
            "cluster", baseline.get("cluster", {}), cluster, CLUSTER_COMPONENTS
        ),
    ]
    if any(failed):
        return 1, cluster
    print(f"OK: exact event counts ({kernel['record_events']} record / "
          f"{kernel['invocation_events']} invocation), cluster invocations "
          f"and checksum ({cluster['invocations']} / "
          f"{cluster['latency_checksum_us']})")
    return 0, cluster


#: The parity matrix's two armed 4-host drills share one fleet (three
#: json functions) and one trace (60 arrivals round-robin over them,
#: 120 ms apart); each names its fault plan and durability policy.
DRILLS = {
    # Device brownout, host crash + reboot and a latent corruption:
    # crash, retry and corruption events for the causal trace.
    "observability": (
        {
            "device_faults": [
                {"scope": "*", "start_us": 500_000.0,
                 "duration_us": 3_000_000.0, "latency_factor": 40.0,
                 "error_rate": 0.6}
            ],
            "host_crashes": [
                {"host": "host1", "at_us": 1_000_000.0,
                 "reboot_after_us": 2_000_000.0}
            ],
            "corruptions": [
                {"host": "host2", "function": "f0", "at_us": 200_000.0}
            ],
        },
        None,
    ),
    # Six corruptions against verified restores, two replicas and the
    # background scrubber.
    "durability": (
        {
            "corruptions": [
                {"host": f"host{h}", "function": f"f{f}", "at_us": at}
                for h, f, at in (
                    (0, 0, 200_000.0),
                    (1, 1, 900_000.0),
                    (2, 2, 1_600_000.0),
                    (3, 0, 2_400_000.0),
                    (0, 1, 3_800_000.0),
                    (2, 0, 5_200_000.0),
                )
            ]
        },
        {"enabled": True, "replicas": 2, "scrub_interval_us": 1_500_000.0},
    ),
}

SERVICE_SCRIPT = REPO_ROOT / "examples" / "service-smoke.cmds"


def _sharded_cell(shards: int) -> dict:
    """The 8-host sharded smoke entry at ``shards``."""
    metrics, merged = run_sharded_cluster_workload(SHARDED_SMOKE, shards)
    return {
        **{key: metrics[key] for key in CLUSTER_COMPONENTS},
        "merged_metrics_sha256": canonical_sha256(merged),
    }


def _drill_cell(
    drill: str, shards: int = 1, causal: bool = False, single_heap: bool = False
) -> dict:
    """One armed 4-host drill at ``shards``, or on the single-heap
    scheduler with ``single_heap``; ``causal`` also traces it."""
    from repro.cluster import (
        ClusterConfig,
        ClusterSimulator,
        ShardedClusterSimulator,
    )
    from repro.faults import DurabilityPolicy, FaultPlan, RecoveryPolicy
    from repro.fleet.workload import Arrival, ArrivalTrace, FleetFunction
    from repro.metrics.causal import CausalTracer

    plan, durability = DRILLS[drill]
    fleet = [
        FleetFunction(
            name=f"f{i}", profile_name="json", mean_interarrival_us=1e6
        )
        for i in range(3)
    ]
    arrivals = [
        Arrival(time_us=i * 120_000.0, function=f"f{i % 3}") for i in range(60)
    ]
    trace = ArrivalTrace(arrivals, duration_us=len(arrivals) * 120_000.0)
    config_fields = {}
    if durability is not None:
        config_fields["durability"] = DurabilityPolicy.from_dict(durability)
    config = ClusterConfig(
        num_hosts=4, seed=7, recovery=RecoveryPolicy.full(), **config_fields
    )
    tracer = CausalTracer() if causal else None
    if single_heap:
        simulator = ClusterSimulator(fleet, config)
    else:
        simulator = ShardedClusterSimulator(fleet, config, shards=shards)
    report = simulator.run(
        trace, fault_plan=FaultPlan.from_dict(plan), causal=tracer
    )
    stream = simulator.durability_events
    cell = {
        **_served(report),
        "detected": report.fault_summary.get("corruptions_detected", 0),
        "silent": report.fault_summary.get("silent_corrupt_serves", 0),
        "stream_bytes": len(json.dumps(stream, sort_keys=True)),
        "stream_sha256": canonical_sha256(stream),
    }
    if tracer is not None:
        cell["causal_events"] = len(tracer.all_events())
        cell["causal_bytes"] = len(tracer.to_json())
        cell["causal_sha256"] = canonical_sha256(tracer.document())
    return cell


def _service_cell(workdir: Path, replay: bool) -> dict:
    """The ``service-smoke.cmds`` session at seed 7, flattened to every
    digest component of every journal entry. The ``replay=False`` cell
    records the journal in ``workdir``; the ``replay=True`` cell
    replays that journal, so it must be computed second."""
    from repro.cli import main as cli_main
    from repro.service import read_journal, replay_journal

    journal = workdir / "service-smoke.journal"
    if replay:
        digests = replay_journal(journal).digests
    else:
        argv = ["serve", "--seed", "7", "--script", str(SERVICE_SCRIPT)]
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli_main(argv + ["--journal", str(journal)])
        if status:
            raise RuntimeError(f"service session exited {status}")
        digests = [entry["digest"] for entry in read_journal(journal)[1]]
    cell = {"entries": len(digests)}
    for seq, digest in enumerate(digests, start=1):
        for key in DIGEST_COMPONENTS:
            if key in digest:
                cell[f"seq{seq}.{key}"] = digest[key]
    return cell


@dataclass(frozen=True)
class ParityRow:
    """One determinism contract: the ``variant`` cell of ``scenario``
    must match the ``base`` cell on ``components`` (``None``: every
    component either cell carries), the ``pin`` section of
    ``BENCH_core.json`` on the cluster components, and the
    ``require``-d values."""

    name: str
    scenario: str
    variant: dict
    base: Optional[dict] = None
    components: Optional[Tuple[str, ...]] = CLUSTER_COMPONENTS
    pin: Optional[str] = None
    require: Optional[dict] = None


#: The determinism contract as one table. The feature rows hold the
#: plain cluster smoke bit-identical with an instrument on or a plane
#: armed but idle; the shard rows hold shards=1 ≡ shards=2, and the
#: single-heap durability row holds the durability event stream of the
#: single-heap scheduler ≡ shards=1; the last row holds a service
#: session ≡ its journal replay.
PARITY_MATRIX = (
    ParityRow("reference", "cluster", {}, pin="cluster"),
    ParityRow("telemetry", "cluster", {"sampler_interval_us": 100_000.0}, {}),
    ParityRow("empty-fault-plan", "cluster", {"fault_plan": {}}, {}),
    ParityRow("observability", "cluster", {"observability": True}, {}),
    ParityRow("durability-off", "cluster", {"durability": {}}, {}),
    ParityRow(
        "sharded-entry", "sharded", {"shards": 2}, {"shards": 1},
        CLUSTER_COMPONENTS + ("merged_metrics_sha256",),
        pin="cluster_sharded.smoke",
    ),
    ParityRow(
        "observability-drill", "drill",
        {"drill": "observability", "causal": True, "shards": 2},
        {"drill": "observability", "causal": True, "shards": 1},
        CLUSTER_COMPONENTS
        + ("causal_events", "causal_bytes", "causal_sha256"),
    ),
    ParityRow(
        "durability-drill", "drill",
        {"drill": "durability", "shards": 2},
        {"drill": "durability", "shards": 1},
        CLUSTER_COMPONENTS
        + ("detected", "silent", "stream_bytes", "stream_sha256"),
        require={"silent": 0},
    ),
    ParityRow(
        "durability-single-heap", "drill",
        {"drill": "durability", "single_heap": True},
        {"drill": "durability", "shards": 1},
        ("detected", "silent", "stream_bytes", "stream_sha256"),
    ),
    ParityRow(
        "journal-replay", "service", {"replay": True}, {"replay": False},
        components=None,
    ),
)


def run_parity(baseline: dict, reference=None, report_out=None) -> int:
    """Run every :data:`PARITY_MATRIX` row: one line per row, plus a
    FAIL line naming the first diverging component of each row that
    fails. Each cell is computed once; ``reference`` is an
    already-measured ``run_cluster_workload()`` to reuse as the plain
    cluster cell."""
    cells = {}
    if reference is not None:
        cells[("cluster", "{}")] = reference
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        scenarios = {
            "cluster": run_cluster_workload,
            "sharded": _sharded_cell,
            "drill": _drill_cell,
            "service": functools.partial(_service_cell, Path(tmp)),
        }

        def cell(scenario, variant):
            key = (scenario, canonical_json(variant))
            if key not in cells:
                cells[key] = scenarios[scenario](**variant)
            return cells[key]

        for row in PARITY_MATRIX:
            checks = []
            if row.base is not None:
                base = cell(row.scenario, row.base)
                checks.append((json.dumps(row.base), base, row.components))
            actual = cell(row.scenario, row.variant)
            if row.pin is not None:
                pinned = baseline
                for key in row.pin.split("."):
                    pinned = pinned.get(key, {})
                pin = f"BENCH_core.json {row.pin}"
                checks.append((pin, pinned, CLUSTER_COMPONENTS))
            if row.require is not None:
                checks.append(("required", row.require, tuple(row.require)))
            mismatch = None
            for against, expected, components in checks:
                if components is None:
                    components = tuple(dict.fromkeys([*expected, *actual]))
                mismatch = first_mismatch(expected, actual, components)
                if mismatch is not None:
                    mismatch["against"] = against
                    break
            # Every scalar a cell carries, not its SHA-256 digests or
            # the per-entry components of a journal.
            shown = ", ".join(
                f"{key} {value}"
                for key, value in actual.items()
                if not key.endswith("_sha256") and "." not in key
            )
            print(f"{row.name:>20}: {'FAIL' if mismatch else 'ok'} ({shown})")
            if mismatch is not None:
                print(
                    f"FAIL: parity row {row.name}: first diverging "
                    f"component {mismatch['field']}: "
                    f"{json.dumps(row.variant)} has {mismatch['actual']!r}, "
                    f"{mismatch['against']} has {mismatch['expected']!r}",
                    file=sys.stderr,
                )
            rows.append({"row": row.name, "first_mismatch": mismatch})
    failed = sum(row["first_mismatch"] is not None for row in rows)
    if report_out is not None:
        report = {
            "schema": "repro.parity-matrix/1",
            "parity": not failed,
            "rows": rows,
            "cells": [
                {"scenario": scenario, "variant": json.loads(variant),
                 "digest": digest}
                for (scenario, variant), digest in cells.items()
            ],
        }
        Path(report_out).write_text(json.dumps(report, indent=2) + "\n")
        print(f"parity report written to {report_out}")
    if failed:
        print(f"PARITY: FALSE ({failed} of {len(rows)} rows diverged)")
        return 1
    print(f"PARITY: TRUE ({len(rows)} rows)")
    return 0


def time_figures(names) -> dict:
    """Regenerate whole experiments; wall-clock seconds per id."""
    from repro.experiments import ALL_EXPERIMENTS

    timings = {}
    for name in names:
        started = time.perf_counter()
        ALL_EXPERIMENTS[name].run()
        timings[name] = round(time.perf_counter() - started, 2)
        print(f"{name:>16}: {timings[name]}s")
    return timings


#: The end-to-end metrics ``--perfbench --update`` records, and so the
#: ones the gate holds: the speed-scaled throughput. The simulated
#: metrics need no bound, as a run pins its simulated counts exactly
#: (a run off its pins is not ``correct``); one run's set-up time can
#: spread wider than its bound, and peak RSS is left to the
#: benchmark's own multi-run comparison.
GATED_METRICS = ("inv_per_s",)

#: End-to-end metrics ``--perfbench`` shows against their recorded
#: medians on ``info:`` lines, ungated for the reasons above: a change
#: to set-up time or memory shows up in CI without failing it.
INFO_METRICS = ("setup_s", "peak_rss_mb")


def read_perfbench(text: str) -> dict:
    """The workload, seed, ``correct`` flag and end-to-end metric values
    of one ``perfbench/run.py`` stdout: its ``workload <name>: seed N``
    line and its final JSON line."""
    header = re.search(r"^workload (\S+): seed (-?\d+),", text, re.MULTILINE)
    if header is None:
        raise ValueError("no 'workload <name>: seed N' line")
    result = json.loads(text.strip().splitlines()[-1])
    return {
        "workload": header[1],
        "seed": int(header[2]),
        "correct": result["correct"] is True,
        "metrics": {
            name: metric["value"] for name, metric in result["metrics"].items()
        },
    }


def perfbench_gate(texts, section: dict, spec: dict) -> List[str]:
    """Judge perfbench stdouts against the ``perfbench`` baseline
    ``section``: one line per check, a failing one starting ``FAIL:``.
    ``spec`` is ``BENCHMARK.json``, whose end-to-end entries give each
    metric's direction and bound."""
    bounds = {metric["name"]: metric for metric in spec["end_to_end"]}
    lines = []
    for text in texts:
        try:
            run = read_perfbench(text)
        except (ValueError, KeyError, IndexError) as error:
            lines.append(f"FAIL: not a perfbench/run.py stdout ({error!r})")
            continue
        name, base = run["workload"], section.get(run["workload"])
        if base is None:
            lines.append(f"FAIL: {name} has no perfbench baseline")
            continue
        if not run["correct"]:
            lines.append(f"FAIL: {name} run is not correct")
        if run["seed"] != base["seed"]:
            lines.append(
                f"FAIL: {name} ran seed {run['seed']}, its baseline "
                f"seed {base['seed']}"
            )
        for metric, expected in base["metrics"].items():
            # A metric the run does not report reads nan, which fails.
            value = run["metrics"].get(metric, float("nan"))
            # +1 where higher is better: the limit is a floor.
            sign = 1.0 if bounds[metric]["better"] == "higher" else -1.0
            bound = bounds[metric]["bound"]
            limit = expected * (1.0 - sign * bound)
            verdict = "ok" if sign * (value - limit) >= 0 else "FAIL"
            lines.append(
                f"{verdict}: {name} {metric} {value:.4g}, limit {limit:.4g} "
                f"(baseline {expected:.4g}, bound {bound:.0%})"
            )
        for metric, expected in base.get("info", {}).items():
            value = run["metrics"].get(metric, float("nan"))
            lines.append(
                f"info: {name} {metric} {value:.4g} (baseline "
                f"{expected:.4g}, {value / expected - 1.0:+.1%})"
            )
    return lines


def check_perfbench(paths, baseline: dict) -> int:
    """The throughput gate over the perfbench stdouts at ``paths``."""
    lines = perfbench_gate(
        [Path(path).read_text() for path in paths],
        baseline.get("perfbench", {}),
        json.loads(BENCHMARK_PATH.read_text()),
    )
    failed = [line for line in lines if line.startswith("FAIL")]
    for line in lines:
        print(line, file=sys.stderr if line in failed else sys.stdout)
    print(f"PERFBENCH: {'FAIL' if failed else 'OK'} ({len(paths)} runs)")
    return int(bool(failed))


def _medians(runs, metrics) -> Dict[str, float]:
    """Each of ``metrics``' median over ``runs``, to 3 decimals."""
    return {
        metric: round(
            statistics.median(run["metrics"][metric] for run in runs), 3
        )
        for metric in metrics
    }


def record_perfbench(paths, baseline: dict) -> None:
    """Record, per workload, the median of the runs at ``paths`` as its
    ``perfbench`` baseline, with the checked-out commit the runs are
    taken to be of. Other workloads' entries are kept."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True,
        ).stdout.strip()
    except OSError:  # no git on this host
        commit = ""
    groups: Dict[str, List[dict]] = {}
    for path in paths:
        run = read_perfbench(Path(path).read_text())
        groups.setdefault(run["workload"], []).append(run)
    section = baseline.setdefault("perfbench", {})
    for name, runs in sorted(groups.items()):
        seeds = {run["seed"] for run in runs}
        if not all(run["correct"] for run in runs) or len(seeds) != 1:
            raise SystemExit(f"{name}: runs are not all correct at one seed")
        section[name] = {
            "commit": commit or None,
            "seed": seeds.pop(),
            "runs": len(runs),
            "metrics": _medians(runs, GATED_METRICS),
            "info": _medians(runs, INFO_METRICS),
        }
        print(f"{name}: {section[name]}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="fixed kernel and cluster smokes, checked against their pins",
    )
    parser.add_argument(
        "--check", action="store_true", help="--smoke plus --parity"
    )
    parser.add_argument(
        "--parity", action="store_true",
        help="the determinism matrix: feature on/off, shards=1 vs 2 "
        "and journal replay must agree on every digest component",
    )
    parser.add_argument(
        "--report-out", metavar="PATH",
        help="with --parity/--check: write every parity cell's digest "
        "here as JSON",
    )
    parser.add_argument(
        "--perfbench", nargs="+", metavar="OUT",
        help="the throughput gate: judge these perfbench/run.py stdouts "
        "against BENCH_core.json with the bounds of BENCHMARK.json",
    )
    parser.add_argument(
        "--figures", nargs="*", metavar="ID",
        help="regenerate these experiments (default fig6 fig8) and "
        "report wall-clock per experiment",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="record what the run measured in BENCH_core.json",
    )
    args = parser.parse_args()

    baseline = (
        json.loads(BASELINE_PATH.read_text()) if BASELINE_PATH.exists() else {}
    )
    if args.parity:
        return run_parity(baseline, report_out=args.report_out)
    if args.perfbench and not args.update:
        return check_perfbench(args.perfbench, baseline)
    status, reference = 0, None
    if args.perfbench:
        record_perfbench(args.perfbench, baseline)
    elif args.smoke or args.check:
        status, reference = run_smoke(baseline, args.update)
    elif args.figures is None:
        parser.error("choose --smoke, --check, --parity, --perfbench or --figures")
    if args.figures is not None:
        baseline["experiments"] = {
            "wall_seconds": time_figures(args.figures or ["fig6", "fig8"]),
            "note": "informational trajectory, not CI-gated",
        }
    if args.update:
        BASELINE_PATH.write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"baseline written to {BASELINE_PATH}")
    elif args.check:
        status = (
            run_parity(baseline, reference=reference, report_out=args.report_out)
            or status
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
