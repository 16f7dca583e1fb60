#!/usr/bin/env python3
"""Performance regression harness and determinism matrix.

Runs a fixed, deterministic workload — a slice of the paper's Figure 1
and Figure 8 grids covering every restore policy and both the batching
fast path and the event-driven machinery — and reports:

* **events/sec** — heap events dispatched per wall-clock second, the
  kernel's raw throughput;
* **cells/sec** — measured invocations per wall-clock second, the
  end-to-end number an experiment run feels;
* **events** — total heap events dispatched, which is deterministic:
  a change here means simulated behaviour changed, not just speed.

Usage:

    python benchmarks/perf_harness.py              # full workload
    python benchmarks/perf_harness.py --smoke      # CI perf gate
    python benchmarks/perf_harness.py --parity     # determinism matrix
    python benchmarks/perf_harness.py --check      # --smoke + --parity
    python benchmarks/perf_harness.py --smoke --update   # rebaseline
    python benchmarks/perf_harness.py --figures fig6 fig8   # time figures

``--smoke`` compares events/sec and the 4-host cluster smoke's
invocations/sec against the committed baseline (``BENCH_core.json``
next to this file) and exits non-zero on a regression beyond
``--threshold`` (default 30%, generous because CI runners vary). The
event *count* and the cluster's invocation count and latency checksum
are checked exactly. ``--update`` rewrites only the baseline sections
the run measured.

``--parity`` runs :data:`PARITY_MATRIX`, the determinism contract as
one table of rows; a failing row names the first digest component
that diverged, and ``--report-out`` writes every cell's digest. Under
``--check`` the plain cluster smoke runs once, as both the ``--smoke``
measurement and the matrix's reference cell.

``--figures`` regenerates whole experiments and reports wall-clock per
experiment; with ``--update`` the timings are recorded in the
baseline's ``experiments`` section as an informational perf
trajectory (not gated — full figures are too slow for CI).
``--sharded-scale`` gates the 64-host / 100k-invocation entry and
``--hotpath`` the cold FAASNAP restore path; neither runs in CI.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

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

#: (function, size ratio) cells; every MAIN policy runs on each.
SMOKE_CELLS = [
    ("json", 1.0),
    ("json", 4.0),
    ("image", 0.5),
    ("chameleon", 2.0),
]

FULL_CELLS = SMOKE_CELLS + [
    ("pyaes", 1.0),
    ("compression", 2.0),
    ("matmul", 0.25),
    ("pagerank", 4.0),
]


def run_workload(cells) -> dict:
    """Run the workload on one fresh platform; return the metrics."""
    functions = tuple(dict.fromkeys(name for name, _ in cells))
    platform, handles = fresh_platform(functions=functions)
    started = time.perf_counter()
    measured = 0
    for name, ratio in cells:
        spec = InputSpec(content_id=9, size_ratio=ratio)
        for policy in MAIN_POLICIES:
            measure(platform, handles[name], policy, spec, INPUT_A)
            measured += 1
        measure(
            platform, handles[name], Policy.WARM, InputSpec(9, ratio), INPUT_A
        )
        measured += 1
    elapsed = time.perf_counter() - started
    events = platform.env.events_processed
    return {
        "events": events,
        "cells": measured,
        "wall_seconds": round(elapsed, 3),
        "events_per_sec": round(events / elapsed, 1),
        "cells_per_sec": round(measured / elapsed, 2),
    }


#: The cluster entries, each one fleet trace served on page-level
#: hosts. ``invocations`` and the latency checksum are deterministic
#: (exact-gated); invocations/sec is the throughput. ``CLUSTER_SMOKE``
#: is the 4-host single-heap smoke. ``SHARDED_SMOKE`` is CI-sized and
#: runs at shards=1 and shards=2 in the parity matrix.
#: ``SHARDED_SCALE`` is the 64-host / 100k-invocation target — far too
#: slow for CI, gated behind ``--sharded-scale``. A sharded entry's
#: latency checksum is shard-count-invariant by the determinism
#: contract, so one baseline gates every shard count.
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

SHARDED_SCALE = {
    "hosts": 64,
    "functions": 16,
    "shards": 4,
    "seed": 42,
    "duration_us": 540_000_000.0,  # ~100k arrivals at this density
    "hot_interarrival_us": 20_000.0,
    "cold_interarrival_us": 1_000_000.0,
}

#: shards=4 must beat shards=1 by this factor — only meaningful (and
#: only asserted) when the box actually has >= 4 cores to run the
#: shard workers on.
SHARDED_SPEEDUP_FLOOR = 3.0

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
    started = time.perf_counter()
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
    elapsed = time.perf_counter() - started
    out = {
        "hosts": CLUSTER_SMOKE["hosts"],
        **_served(report),
        "wall_seconds": round(elapsed, 3),
        "invocations_per_sec": round(report.count() / elapsed, 2),
    }
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
    started = time.perf_counter()
    simulator = ShardedClusterSimulator(fleet, config, shards=shards)
    report = simulator.run(trace)
    elapsed = time.perf_counter() - started
    return {
        "hosts": entry["hosts"],
        "shards": simulator.shards,
        "windows": simulator.windows_run,
        **_served(report),
        "wall_seconds": round(elapsed, 3),
        "invocations_per_sec": round(report.count() / elapsed, 2),
    }, simulator.merged_metrics


#: Restore-bookkeeping hot-path microbench (the ROADMAP's
#: ~40 ms/invocation flag): one host, one FAASNAP function, page
#: cache dropped before every invocation so each one pays the full
#: page-level restore path — mapping-plan construction, loader
#: chunking, pending-read tracking, fault-record absorption.
HOTPATH_FUNCTION = "json"
HOTPATH_INVOCATIONS = 30


def run_hotpath_workload(invocations: int = HOTPATH_INVOCATIONS) -> dict:
    """Measure the cold FAASNAP restore path in wall-clock ms/invocation."""
    from repro.core.host import Host
    from repro.sim import Environment
    from repro.workloads import get_profile

    env = Environment(seed=7)
    host = Host(env)
    profile = get_profile(HOTPATH_FUNCTION)
    box = {}

    def record():
        box["artifacts"] = yield from host.record_process(
            profile, INPUT_A, Policy.FAASNAP
        )

    env.run(until=env.process(record()))
    artifacts = box["artifacts"]
    test_input = InputSpec(content_id=3, size_ratio=1.0)
    started = time.perf_counter()
    for _ in range(invocations):
        host.drop_function_caches(artifacts)
        env.run(
            until=env.process(
                host.invocation(artifacts, test_input, Policy.FAASNAP)
            )
        )
    elapsed = time.perf_counter() - started
    return {
        "function": HOTPATH_FUNCTION,
        "policy": Policy.FAASNAP.value,
        "invocations": invocations,
        "ms_per_invocation": round(elapsed * 1000.0 / invocations, 2),
    }


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


def _floor_fails(what: str, key: str, pinned, metrics, threshold) -> bool:
    """Print a FAIL line when the throughput ``metrics[key]`` is more
    than ``threshold`` below its committed baseline."""
    measured, floor = metrics[key], pinned[key] * (1.0 - threshold)
    if measured < floor:
        print(
            f"FAIL: {measured:.2f} {what} is below {floor:.2f} "
            f"(baseline {pinned[key]:.2f} - {threshold:.0%})",
            file=sys.stderr,
        )
    return measured < floor


def check_sharded_scale(shards, threshold, baseline=None) -> tuple:
    """The gated 64-host / 100k-invocation entry."""
    import os

    status = 0
    metrics, _ = run_sharded_cluster_workload(SHARDED_SCALE, shards=shards)
    for key, value in metrics.items():
        print(f"{'sharded_scale.' + key:>30}: {value}")
    scale_baseline = (baseline or {}).get("scale")
    if scale_baseline is not None:
        # The checksum is shard-count-invariant, so these gates hold
        # for whatever --shards was requested.
        failed = [
            _pin_fails(
                "sharded scale", scale_baseline, metrics, CLUSTER_COMPONENTS
            ),
            _floor_fails(
                "sharded invocations/sec", "invocations_per_sec",
                scale_baseline, metrics, threshold,
            ),
        ]
        status = int(any(failed))
    cores = os.cpu_count() or 1
    if shards > 1 and cores >= shards:
        single, _ = run_sharded_cluster_workload(SHARDED_SCALE, shards=1)
        speedup = (
            metrics["invocations_per_sec"]
            / single["invocations_per_sec"]
        )
        print(f"{'sharded_scale.speedup':>30}: {speedup:.2f}x")
        if speedup < SHARDED_SPEEDUP_FLOOR:
            print(
                f"FAIL: shards={shards} is only {speedup:.2f}x the "
                f"single-shard run (floor {SHARDED_SPEEDUP_FLOOR}x)",
                file=sys.stderr,
            )
            status = 1
    elif shards > 1:
        print(
            f"note: {cores} core(s) < {shards} shards — skipping the "
            f"{SHARDED_SPEEDUP_FLOOR}x speedup assertion (it measures "
            "parallel hardware, which this box lacks)"
        )
    return status, metrics


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


def _cluster_digest(metrics: dict) -> dict:
    """A cluster smoke's metrics without the wall-clock figures."""
    return {
        key: value
        for key, value in metrics.items()
        if key not in ("hosts", "wall_seconds", "invocations_per_sec")
    }


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
        cells[("cluster", "{}")] = _cluster_digest(reference)
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        scenarios = {
            "cluster": lambda **variant: _cluster_digest(
                run_cluster_workload(**variant)
            ),
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
        module = ALL_EXPERIMENTS[name]
        started = time.perf_counter()
        module.run()
        timings[name] = round(time.perf_counter() - started, 2)
        print(f"{name:>16}: {timings[name]}s")
    return timings


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small fixed workload, gated against BENCH_core.json",
    )
    parser.add_argument(
        "--figures",
        nargs="*",
        metavar="ID",
        help="also regenerate these experiments (default fig6 fig8) "
        "and report wall-clock per experiment",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="write the measured numbers to BENCH_core.json",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.30,
        help="allowed events/sec regression fraction (default 0.30)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="full regression gate: --smoke plus --parity",
    )
    parser.add_argument(
        "--parity",
        action="store_true",
        help="the determinism matrix: feature on/off, shards=1 vs 2 "
        "and journal replay must agree on every digest component",
    )
    parser.add_argument(
        "--sharded-scale",
        action="store_true",
        help="the gated 64-host / 100k-invocation cluster_sharded "
        "entry (slow; gated against BENCH_core.json)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=SHARDED_SCALE["shards"],
        help="shard count for --sharded-scale (default "
        f"{SHARDED_SCALE['shards']})",
    )
    parser.add_argument(
        "--report-out",
        metavar="PATH",
        help="with --parity/--check: write every parity cell's digest "
        "here as JSON",
    )
    parser.add_argument(
        "--hotpath",
        action="store_true",
        help="restore-bookkeeping hot-path microbench (cold FAASNAP "
        "restores, ms/invocation); with --update records the number "
        "in the cluster_hotpath baseline entry",
    )
    args = parser.parse_args()

    baseline = (
        json.loads(BASELINE_PATH.read_text()) if BASELINE_PATH.exists() else {}
    )

    if args.hotpath:
        metrics = run_hotpath_workload()
        for key, value in metrics.items():
            print(f"{'hotpath.' + key:>28}: {value}")
        entry = baseline.get("cluster_hotpath")
        if args.update:
            # Keeps the entry's before_ms_per_invocation history.
            baseline["cluster_hotpath"] = {**(entry or {}), **metrics}
            BASELINE_PATH.write_text(json.dumps(baseline, indent=2) + "\n")
            print(f"cluster_hotpath baseline written to {BASELINE_PATH}")
            return 0
        if entry is not None:
            ceiling = entry["ms_per_invocation"] * (1.0 + args.threshold)
            if metrics["ms_per_invocation"] > ceiling:
                print(
                    f"FAIL: {metrics['ms_per_invocation']:.2f} ms/invocation "
                    f"is above {ceiling:.2f} (baseline "
                    f"{entry['ms_per_invocation']:.2f} + "
                    f"{args.threshold:.0%})",
                    file=sys.stderr,
                )
                return 1
            print(
                f"OK: hot path at {metrics['ms_per_invocation']:.2f} "
                f"ms/invocation (baseline "
                f"{entry['ms_per_invocation']:.2f})"
            )
        return 0

    if args.parity:
        return run_parity(baseline, report_out=args.report_out)

    if args.sharded_scale:
        status, metrics = check_sharded_scale(
            args.shards, args.threshold, baseline.get("cluster_sharded")
        )
        if args.update:
            section = baseline.setdefault("cluster_sharded", {})
            section["scale"] = {**metrics, "workload": SHARDED_SCALE}
            section["speedup_floor"] = SHARDED_SPEEDUP_FLOOR
            BASELINE_PATH.write_text(json.dumps(baseline, indent=2) + "\n")
            print(f"cluster_sharded scale baseline written to {BASELINE_PATH}")
            return 0
        return status

    if args.check:
        args.smoke = True

    cells = SMOKE_CELLS if args.smoke else FULL_CELLS
    metrics = run_workload(cells)
    for key, value in metrics.items():
        print(f"{key:>16}: {value}")
    cluster_metrics = run_cluster_workload()
    for key, value in cluster_metrics.items():
        print(f"{'cluster.' + key:>26}: {value}")

    figure_timings = None
    if args.figures is not None:
        figure_timings = time_figures(args.figures or ["fig6", "fig8"])

    if args.update:
        # Rewrite only the sections this run measured; every other
        # section (scale entry, hot path history) is kept as it is.
        baseline["smoke"] = (
            metrics if args.smoke else run_workload(SMOKE_CELLS)
        )
        baseline["cluster"] = cluster_metrics
        if figure_timings is not None:
            baseline["experiments"] = {
                "wall_seconds": figure_timings,
                "note": "informational trajectory, not CI-gated",
            }
        sharded_smoke, _ = run_sharded_cluster_workload(
            SHARDED_SMOKE, shards=SHARDED_SMOKE["shards"]
        )
        baseline.setdefault("cluster_sharded", {})["smoke"] = sharded_smoke
        BASELINE_PATH.write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"baseline written to {BASELINE_PATH}")
        return 0

    if not args.smoke:
        return 0

    if "smoke" not in baseline or "cluster" not in baseline:
        print(
            f"no smoke/cluster baseline in {BASELINE_PATH}; run with --update",
            file=sys.stderr,
        )
        return 2
    smoke_baseline, cluster_baseline = baseline["smoke"], baseline["cluster"]
    failed = [
        _pin_fails("kernel", smoke_baseline, metrics, ("events",)),
        _floor_fails(
            "events/sec", "events_per_sec", smoke_baseline, metrics,
            args.threshold,
        ),
        _pin_fails(
            "cluster", cluster_baseline, cluster_metrics, CLUSTER_COMPONENTS
        ),
        _floor_fails(
            "cluster invocations/sec", "invocations_per_sec",
            cluster_baseline, cluster_metrics, args.threshold,
        ),
    ]
    status = int(any(failed))
    if status == 0:
        print(
            f"OK: events/sec within {args.threshold:.0%} of baseline "
            f"({metrics['events_per_sec']:.0f} vs "
            f"{smoke_baseline['events_per_sec']:.0f}), event count exact; "
            f"cluster {cluster_metrics['invocations_per_sec']:.2f} inv/sec "
            f"({CLUSTER_SMOKE['hosts']} hosts), checksums exact"
        )
    if args.check:
        status = (
            run_parity(
                baseline, reference=cluster_metrics, report_out=args.report_out
            )
            or status
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
