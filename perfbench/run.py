#!/usr/bin/env python3
"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload cluster-steady --seed 7 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed.
It runs ``ROUNDS`` identical rounds, each of which sets up from scratch
and then serves the same arrivals: ``setup_s`` is the median round's
set-up time, ``inv_per_s`` a round's served invocations (restores, on
restore-cold) over the median round's serving time, both at the
reference CPU speed (``perfbench/speed.py``), and the simulated metrics
come from the first round. ``--trace 1`` runs one untraced round and
then the same round again with layer wrappers installed
(``perfbench/layers.py``), and prints the per-layer metrics plus the
tracing overhead. Metric names and units come from ``BENCHMARK.json``.

Every run checks its outputs outside the timed regions: each arrival
accounted exactly once, every round (and the traced round, and the
shards=2 and shards=1 rounds of the traced cluster-steady run)
reproducing the same checksum, event count and exact simulated counts,
the chaos rounds after the
first replaying its journal with no digest mismatch, no silent corrupt
serve, at least 100 ok latency samples, and — for the default seed at
``--seconds 10`` — the values pinned in ``perfbench/pinned.json``. Any
failed check counts as a failed operation, makes ``correct`` false and
the exit code 1.

``--seconds`` sizes the serving work (input sizes per function, or
virtual seconds of arrivals) so that the serving epochs of one run take
a little under that long on a 2-core x86 box; the work is fixed by seed
and seconds, so simulated figures are deterministic.

``--write-pins`` reruns the default seed and rewrites ``pinned.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED_PATH = HERE / "pinned.json"
DEFAULT_SEED = 7
PINNED_SECONDS = 10
#: The paper's C1 figures (``repro.experiments.claims``).
PAPER_SPEEDUP = {"firecracker": 2.0, "reap": 1.4}
#: Nearest-rank p90 needs 10 samples beyond it.
MIN_OK_SAMPLES = 100
#: Per-policy restore phases reported as per-layer metrics.
PHASE_COLUMNS = ("vmm_setup_ms", "fault_ms", "fetch_ms", "compute_ms")


def _load_program():
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))


def percentile_ms(latencies_us, pct: float) -> float:
    from repro.fleet.scheduler import FleetReport, ServedInvocation

    report = FleetReport(
        served=[ServedInvocation(0.0, "", None, lat) for lat in latencies_us]
    )
    return report.latency_percentile(pct) / 1000.0


def end_to_end(rounds, peak_rss_mb):
    """End-to-end metrics of identical rounds: the simulated ones from
    the first round, host times as the median round's, at the
    reference speed (``perfbench/speed.py``)."""
    first = rounds[0]
    serve_s = statistics.median(r.serve_at_ref_s() for r in rounds)
    setup_s = statistics.median(r.setup_at_ref_s() for r in rounds)
    print(
        f"wall time, not scaled: median serving {statistics.median(r.serve_s for r in rounds):.3f} s "
        f"(at reference speed {serve_s:.3f} s), median set-up "
        f"{statistics.median(r.setup_s for r in rounds):.3f} s (at reference speed {setup_s:.3f} s)"
    )
    return {
        "inv_per_s": first.attempted / serve_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "sim_p50_ms": percentile_ms(first.ok_latencies_us, 50),
        "sim_p90_ms": percentile_ms(first.ok_latencies_us, 90),
    }


def fingerprint(rnd):
    """Everything a round simulated that must repeat exactly."""
    return {"checksum_us": rnd.checksum_us, "events": rnd.events, "counts": rnd.counts}


def check_same(label, a, b, errors) -> None:
    fa, fb = fingerprint(a), fingerprint(b)
    if fa != fb:
        diff = {k: (fa[k], fb[k]) for k in fa if fa[k] != fb[k] and k != "counts"}
        diff.update(
            {k: (v, fb["counts"].get(k)) for k, v in fa["counts"].items() if fb["counts"].get(k) != v}
        )
        errors.append(f"{label}: {diff}")


def _layer_diff(a, b):
    return {k: b.get(k, 0) - a.get(k, 0) for k in set(a) | set(b)}


def shard_rounds(steady, errors):
    """The cluster-steady inputs served by the sharded router: an
    untraced shards=2 round, the same round with the router's layer
    boundaries traced, and a shards=1 round. All three must simulate
    exactly what the untraced shards=2 round did."""
    from layers import LayerClock, install
    from workloads import ClusterSharded

    sharded = ClusterSharded(steady.seed, steady.seconds, steady.workdir)
    base = sharded.run_round(lambda: None)
    clock = LayerClock()
    uninstall = install(clock, "router")
    try:
        traced = sharded.run_round(clock.snapshot)
    finally:
        uninstall()
    sharded.shards = 1
    serial = sharded.run_round(lambda: None)
    check_same("tracing changed the sharded simulation", traced, base, errors)
    check_same("shards=1 and shards=2 disagree", serial, base, errors)
    return base, traced, serial


def shard_metrics(base, traced, serial):
    from speed import at_reference

    (t0, c0), (t1, c1), (t2, c2) = traced.marks
    # The full run also waits through the workers' prep, which the
    # empty-trace set-up run measures on its own.
    ipc_s = _layer_diff(t1, t2).get("shard.ipc", 0.0) - _layer_diff(t0, t1).get("shard.ipc", 0.0)
    moved = {
        k: v - _layer_diff(c0, c1).get(k, 0) for k, v in _layer_diff(c1, c2).items()
    }
    windows = traced.extra["windows"]

    def run_at_ref_s(rnd):
        return at_reference(rnd.extra["run_s"], rnd.extra["run_ref_s"])

    return {
        "shard.windows": windows,
        "shard.ipc_wait_ms_per_inv": at_reference(ipc_s, traced.extra["run_ref_s"])
        * 1000.0
        / traced.attempted,
        "shard.bytes_per_window": (
            moved.get("shard.bytes_sent", 0) + moved.get("shard.bytes_received", 0)
        )
        / windows,
        "shard.speedup_vs_serial": run_at_ref_s(serial) / run_at_ref_s(base),
    }


def per_layer(workload, base, traced, shard=None):
    """Per-layer metrics of one traced round (``traced``) against its
    untraced twin (``base``), plus the ``shard.*`` metrics of the
    sharded rounds ``shard`` (cluster-steady only). Layer self times
    are scaled to the reference speed by the traced round's own set-up
    or serving ratio."""
    from repro.core.policies import MAIN_POLICIES
    from workloads import phase_table, speedups

    (t0, _), (t1, _), (t2, _) = traced.marks
    setup = _layer_diff(t0, t1)
    serve = _layer_diff(t1, t2)
    served = traced.attempted
    name = workload.name

    setup_scale = traced.setup_at_ref_s() / traced.setup_s
    serve_scale = traced.serve_at_ref_s() / traced.serve_s
    setup = {k: v * setup_scale for k, v in setup.items()}
    serve = {k: v * serve_scale for k, v in serve.items()}

    def ms_per_inv(layer):
        return serve.get(layer, 0.0) * 1000.0 / served

    commands = traced.extra.get("commands", 0)
    service_s = setup.get("service", 0.0) + serve.get("service", 0.0)
    m = {
        "sim.self_ms_per_inv": ms_per_inv("sim"),
        "sim.events": traced.events,
        "sim.events_per_s": base.events / base.serve_at_ref_s(),
        "sim.ok_samples": len(traced.ok_latencies_us),
        "host.fault_ms_per_inv": ms_per_inv("host.fault"),
        "host.page_cache_ms_per_inv": ms_per_inv("host.page_cache"),
        "storage.device_ms_per_inv": ms_per_inv("storage.device"),
        "storage.filestore_ms_per_inv": ms_per_inv("storage.filestore"),
        "vm.vcpu_ms_per_inv": ms_per_inv("vm.vcpu"),
        "vm.vmm_ms_per_inv": ms_per_inv("vm.vmm"),
        "vm.snapshot_ms": setup.get("vm.snapshot", 0.0) * 1000.0,
        "core.loader_ms_per_inv": ms_per_inv("core.loader"),
        "core.record_ms": setup.get("core.record", 0.0) * 1000.0,
        "workloads.trace_ms": base.trace_s * 1000.0 * base.setup_at_ref_s() / base.setup_s,
        "cluster.placement_ms_per_inv": ms_per_inv("cluster.placement"),
        "shard.windows": 0,
        "shard.ipc_wait_ms_per_inv": 0.0,
        "shard.bytes_per_window": 0.0,
        "shard.speedup_vs_serial": 0.0,
        "durability.checksum_ms_per_inv": ms_per_inv("durability.checksum"),
        "durability.verify_ms_per_inv": ms_per_inv("durability.verify"),
        "obs.causal_ms_per_inv": ms_per_inv("obs.causal"),
        "obs.slo_ms_per_inv": ms_per_inv("obs.slo"),
        "obs.flight_ms_per_inv": ms_per_inv("obs.flight"),
        "obs.telemetry_ms_per_inv": ms_per_inv("obs.telemetry"),
        "obs.causal_events": traced.extra.get("causal_events", 0),
        "service.self_ms_per_cmd": service_s * 1000.0 / commands if commands else 0.0,
        "service.journal_bytes": traced.extra.get("journal_bytes", 0),
        "trace.inv_per_s_untraced": base.attempted / base.serve_at_ref_s(),
        "trace.inv_per_s_traced": traced.attempted / traced.serve_at_ref_s(),
        "bench.ref_kernel_us": statistics.median(traced.unit_ref_s) * 1e6,
    }
    m["trace.overhead"] = m["trace.inv_per_s_untraced"] / m["trace.inv_per_s_traced"]
    if shard is not None:
        m.update(shard_metrics(*shard))
    for key in (
        "host.faults.anon",
        "host.faults.minor",
        "host.faults.major",
        "host.faults.uffd",
        "host.faults.present",
        "host.faults.cow",
        "host.fault_time_us",
        "storage.requests",
        "storage.bytes_read",
        "storage.queue_wait_us",
        "core.fetch_bytes",
        "core.fetch_time_us",
        "cluster.start_share.warm",
        "cluster.start_share.snapshot",
        "cluster.start_share.cold",
        "cluster.evictions",
        "cluster.admission_wait_us",
        "faults.attempts_per_arrival",
        "faults.retries",
        "faults.hedges",
        "durability.detected",
        "durability.repairs",
    ):
        m[key] = traced.counts.get(key, 0)
    m["accuracy.speedup_vs_firecracker"] = 0.0
    m["accuracy.speedup_vs_reap"] = 0.0
    for policy in MAIN_POLICIES:
        for column in PHASE_COLUMNS:
            m[f"phase.{policy.value}.{column}"] = 0.0
    if name == "restore-cold":
        ratios = speedups(traced.extra["cells"])
        m["accuracy.speedup_vs_firecracker"] = ratios["firecracker"]
        m["accuracy.speedup_vs_reap"] = ratios["reap"]
        for policy, row in phase_table(traced.extra["cells"]).items():
            for column in PHASE_COLUMNS:
                m[f"phase.{policy}.{column}"] = row[column]
    return m


def print_phase_table(cells) -> None:
    from workloads import phase_table, speedups

    table = phase_table(cells)
    columns = list(next(iter(table.values())))
    print("simulated restore phases, mean per cell (ms; fetch in MB) — "
          "unvalidated: the repository holds no per-phase reference")
    print(f"{'policy':<12}" + "".join(f"{c:>18}" for c in columns))
    for policy, row in table.items():
        print(f"{policy:<12}" + "".join(f"{row[c]:>18.3f}" for c in columns))
    for other, value in speedups(cells).items():
        print(
            f"accuracy.speedup_vs_{other}: {value:.3f}x "
            f"(paper ~{PAPER_SPEEDUP[other]}x, claim C1)"
        )


def check_pins(workload, rnd, errors) -> None:
    if workload.seed != DEFAULT_SEED or workload.seconds != PINNED_SECONDS:
        print(f"note: pins apply to --seed {DEFAULT_SEED} --seconds {PINNED_SECONDS}; skipped")
        return
    pins = json.loads(PINNED_PATH.read_text()).get(workload.name)
    if pins is None:
        errors.append(f"no pins for {workload.name} in {PINNED_PATH.name}")
        return
    got = fingerprint(rnd)
    for key, want in pins.items():
        if got[key] != want:
            errors.append(f"{key} differs from the pinned value: {got[key]} != {want}")


def write_pins() -> None:
    from workloads import WORKLOADS

    pins = {}
    workdir = Path(".perfbench")
    workdir.mkdir(exist_ok=True)
    for name, cls in WORKLOADS.items():
        workload = cls(DEFAULT_SEED, PINNED_SECONDS, workdir)
        pins[name] = fingerprint(workload.run_round(lambda: None))
        print(f"pinned {name}")
    PINNED_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=PINNED_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args()
    _load_program()
    if args.write_pins:
        write_pins()
        return 0

    from layers import LayerClock, install
    from workloads import ROUNDS, WORKLOADS, peak_rss_mb

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.seconds == int(args.seconds):
        args.seconds = int(args.seconds)
    workdir = Path(".perfbench")
    workdir.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.seconds, workdir)
    errors = []

    if not args.trace:
        rounds = [workload.run_round(lambda: None) for _ in range(ROUNDS)]
        for index, rnd in enumerate(rounds[1:], start=1):
            check_same(f"round {index} differs from round 0", rnd, rounds[0], errors)
        values = end_to_end(rounds, peak_rss_mb())
        metrics = spec["end_to_end"]
        used = rounds
    else:
        used = [workload.run_round(lambda: None)]
        clock = LayerClock()
        uninstall = install(clock)
        try:
            used.append(workload.run_round(clock.snapshot))
        finally:
            uninstall()
        base, traced = used
        check_same("tracing changed the simulation", traced, base, errors)
        shard = None
        if workload.name == "restore-cold":
            print_phase_table(traced.extra["cells"])
        if workload.name == "cluster-steady":
            from workloads import PERF_HARNESS_CHECKSUM_US, service_path_checksum

            checksum = service_path_checksum()
            print(f"perf-harness inputs through inject/advance 0/drain: checksum "
                  f"{checksum} (ClusterSimulator.run: {PERF_HARNESS_CHECKSUM_US})")
            if checksum != PERF_HARNESS_CHECKSUM_US:
                errors.append("service path does not reproduce ClusterSimulator.run")
            shard = shard_rounds(workload, errors)
            used += shard
        values = per_layer(workload, base, traced, shard)
        metrics = spec["per_layer"]
        print(f"tracing overhead: {values['trace.overhead']:.3f}x "
              "(untraced inv/s over traced inv/s)")
    first = used[0]
    check_pins(workload, first, errors)
    if len(first.ok_latencies_us) < MIN_OK_SAMPLES:
        errors.append(f"only {len(first.ok_latencies_us)} ok samples (< {MIN_OK_SAMPLES})")

    for rnd in used:
        errors.extend(rnd.errors)
    attempted = sum(r.attempted for r in used)
    failed = sum(r.failed for r in used) + len(errors)
    for error in errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    values["ok_frac"] = 1.0 - failed / attempted
    print(f"workload {workload.name}: seed {args.seed}, {len(used)} rounds of "
          f"{first.attempted} arrivals, {len(first.ok_latencies_us)} ok latency "
          f"samples per round; failed_frac {failed / attempted:.6f}")
    out = {}
    for metric in metrics:
        value = values[metric["name"]]
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']}: {value} {metric['unit']}")
    correct = not errors and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
