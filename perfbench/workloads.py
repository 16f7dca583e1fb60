"""The benchmark's three workloads, and the sharded run of one of them.

Each workload runs as a sequence of identical *rounds*. A round sets
up from scratch (fleet and trace synthesis, host creation, the
record/prep epoch) and then serves its arrivals; set-up and serving are
timed separately, each next to reference-kernel timings
(``speed.py``). A round's inputs are fixed by ``(seed, seconds)``, so
every round of a run must reproduce the same simulated numbers, while
the host-time numbers are measured once per round.

* ``restore-cold`` — one :class:`FaaSnapPlatform`; Table 2 functions x
  ``MAIN_POLICIES`` x input sizes, page cache dropped per cell (the
  paper's Fig. 6/8 method).
* ``cluster-steady`` — the perf harness's hot 8-function json/pyaes
  fleet on 4 hosts, least-loaded placement, keep-alive, recovery and
  durability off, driven through :class:`ClusterService`
  (inject, ``advance 0`` = prep, drain).
* ``cluster-chaos`` — the same fleet and arrivals with full recovery, durability,
  a fault plan and the observability planes, driven through journaled
  service commands in fixed virtual windows.

The traced run of ``cluster-steady`` also serves its arrivals with
:class:`ShardedClusterSimulator` at shards=2 and shards=1, for the
``shard.*`` metrics. Sharded serving is not an end-to-end workload:
with two processes on two shared cores its throughput spread over
seeds was 0.16 of its median, against 0.05 for the single-process
workloads.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

from repro.cluster import ClusterConfig, ClusterSimulator, ShardedClusterSimulator
from repro.core.policies import MAIN_POLICIES, Policy
from repro.experiments.common import fresh_platform
from repro.faults import DurabilityPolicy, FaultPlan, RecoveryPolicy
from repro.fleet.scheduler import InvocationOutcome, SERVED_OK, StartKind
from repro.fleet.workload import ArrivalTrace, generate_arrivals, synthesize_fleet
from repro.host.fault import FaultKind
from repro.metrics.causal import CausalTracer
from repro.metrics.flight import FlightRecorder
from repro.metrics.slo import SloMonitor
from repro.service.commands import (
    AdvanceCommand,
    DrainCommand,
    DurabilityStatusCommand,
    InjectCommand,
    SloStatusCommand,
    SnapshotTelemetryCommand,
)
from repro.service.core import ClusterService
from repro.service.journal import JournalWriter, read_journal
from repro.workloads import base as workloads_base
from repro.workloads.base import INPUT_A, InputSpec
from repro.workloads.registry import get_profile
from speed import at_reference, bracket, reference_s, reference_samples

#: Rounds per untraced run: each sets up once, so ``setup_s`` is the
#: median of this many set-ups.
ROUNDS = 3

#: The perf harness's cluster fleet (``benchmarks/perf_harness.py``).
FLEET_SIZE = 8
FLEET_SEED = 7
FLEET_PROFILES = ("json", "pyaes")
HOT_INTERARRIVAL_US = 5_000_000.0
COLD_INTERARRIVAL_US = 60_000_000.0
CLUSTER_HOSTS = 4
#: Keep-alive TTL. The perf harness uses 30 s, which puts the median
#: latency on the edge between the json and pyaes warm-start plateaus,
#: so ``sim_p50_ms`` flips between them from one seed to the next.
KEEP_ALIVE_TTL_US = 120_000_000.0
SHARDS = 2

#: Table 2 functions whose cold restores cost under ~0.1 s of host
#: time each; read-list, mmap, recognition, pagerank, matmul and
#: ffmpeg cost 0.1-3 s per restore and would leave a 10 s run with a
#: handful of cells.
RESTORE_FUNCTIONS = ("hello-world", "json", "compression", "pyaes", "chameleon", "image")

#: Work per ``--seconds`` of serving, calibrated on a 2-core x86 box:
#: restore-cold input sizes per function per round (the cluster
#: workloads set virtual seconds of arrivals per run).
SIZES_PER_SECOND = 0.5

#: Serving advances in windows of this many virtual ms (each window is
#: one timed unit of work).
SERVE_WINDOW_MS = 10_000.0


def _rng(*parts: Any) -> random.Random:
    return random.Random("perfbench|" + "|".join(str(p) for p in parts))


def test_input_for(seed: int) -> InputSpec:
    """The cluster workloads' serving input: content and a size within
    3% of input A, drawn from the seed."""
    rng = _rng("test-input", seed)
    return InputSpec(
        content_id=rng.randrange(2, 10_000), size_ratio=rng.uniform(0.97, 1.03)
    )


def settle() -> None:
    """Collect garbage outside the timed regions, so a collection of
    an earlier phase's garbage does not land in a timed one."""
    gc.collect()


def reset_trace_cache() -> None:
    """Start a round with the process-wide trace memo empty, so every
    round's set-up synthesizes the same traces."""
    workloads_base._TRACE_CACHE.clear()


@dataclass
class Round:
    """What one round measured and simulated."""

    setup_s: float = 0.0
    serve_s: float = 0.0
    trace_s: float = 0.0
    attempted: int = 0
    outcomes: Dict[str, int] = field(default_factory=dict)
    #: Simulated latency of every successfully served invocation, us.
    ok_latencies_us: List[float] = field(default_factory=list)
    #: Sum of the simulated latency of every served arrival, us.
    checksum_us: float = 0.0
    #: Simulated events (see each workload for the scope).
    events: int = 0
    #: Exact simulated counts (fault kinds, storage, start kinds ...).
    counts: Dict[str, float] = field(default_factory=dict)
    #: Failed correctness checks.
    errors: List[str] = field(default_factory=list)
    #: Workload-specific extras (phase table, shard figures ...).
    extra: Dict[str, Any] = field(default_factory=dict)
    #: Layer self-time snapshots (traced rounds): at start, after
    #: set-up, after serving.
    marks: List[Any] = field(default_factory=list)
    #: Wall time of each unit of serving work (a cell, or one service
    #: command), in order.
    unit_s: List[float] = field(default_factory=list)
    #: Reference-kernel times bracketing the units: one before the
    #: first unit and one after each.
    unit_ref_s: List[float] = field(default_factory=list)
    #: Reference-kernel samples taken just before and just after set-up.
    setup_refs: List[List[float]] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.outcomes.get("failed", 0) + self.outcomes.get("shed", 0)

    def begin_setup(self) -> float:
        self.setup_refs.append(reference_samples())
        return perf_counter()

    def end_setup(self, started: float) -> None:
        self.setup_s = perf_counter() - started
        self.setup_refs.append(reference_samples())

    def begin_serving(self) -> None:
        self.unit_ref_s.append(reference_s())

    def time_unit(self, step: Callable[[], Any]) -> Any:
        started = perf_counter()
        result = step()
        self.unit_s.append(perf_counter() - started)
        self.unit_ref_s.append(reference_s())
        return result

    def end_serving(self) -> None:
        self.serve_s = sum(self.unit_s)

    def setup_at_ref_s(self) -> float:
        return at_reference(self.setup_s, bracket(*self.setup_refs))

    def serve_at_ref_s(self) -> float:
        """Serving time at the reference speed, each unit scaled by the
        kernel times on either side of it."""
        refs = self.unit_ref_s
        return sum(
            at_reference(t, (refs[i] + refs[i + 1]) / 2)
            for i, t in enumerate(self.unit_s)
        )


def _outcome_counts(served) -> Dict[str, int]:
    counts = {o.value: 0 for o in InvocationOutcome}
    for s in served:
        counts[s.outcome.value] += 1
    return counts


def check_accounting(arrivals, served, errors: List[str]) -> None:
    """Every arrival accounted exactly once as ok, retried, hedge-won,
    shed or failed."""
    expected = sorted((a.time_us, a.function) for a in arrivals)
    got = sorted((s.time_us, s.function) for s in served)
    if expected != got:
        errors.append(
            f"arrival accounting: {len(arrivals)} arrivals, "
            f"{len(served)} outcomes, multisets differ"
        )
    counts = _outcome_counts(served)
    if sum(counts.values()) != len(arrivals):
        errors.append(f"outcome counts {counts} do not sum to {len(arrivals)}")


def _fill_cluster_traces(fleet, config: ClusterConfig) -> float:
    """Synthesize every guest access trace the round will use, inside
    set-up (otherwise they fill lazily during the first invocations)."""
    started = perf_counter()
    for fn in fleet:
        profile = dataclasses.replace(get_profile(fn.profile_name), name=fn.name)
        workloads_base.generate_trace_pair(profile, config.record_input, config.test_input)
    return perf_counter() - started


#: ``ClusterSimulator.run``'s latency checksum on the perf harness's
#: cluster inputs (the ``cluster`` entry of ``BENCH_core.json``).
PERF_HARNESS_CHECKSUM_US = 82843144.31


def service_path_checksum() -> float:
    """The perf harness's cluster inputs driven through the service
    surface the benchmark uses (inject, ``advance 0``, drain); equal to
    :data:`PERF_HARNESS_CHECKSUM_US` when that split reproduces the
    batch run."""
    fleet = perf_harness_fleet()
    trace = generate_arrivals(fleet, duration_us=120_000_000.0, seed=7)
    config = ClusterConfig(
        num_hosts=CLUSTER_HOSTS,
        placement="least-loaded",
        keep_alive_ttl_us=30_000_000.0,
    )
    service = ClusterService(ClusterSimulator(fleet, config))
    service.execute(InjectCommand.from_arrivals(trace.arrivals))
    service.execute(AdvanceCommand(ms=0))
    service.execute(DrainCommand())
    return round(sum(s.latency_us for s in service.report.served), 3)


def perf_harness_fleet():
    return synthesize_fleet(
        FLEET_SIZE,
        seed=FLEET_SEED,
        profile_names=FLEET_PROFILES,
        hot_interarrival_us=HOT_INTERARRIVAL_US,
        cold_interarrival_us=COLD_INTERARRIVAL_US,
    )


def _registry_counts(registry) -> Dict[str, float]:
    """Fault-kind counts and fault time summed over every host."""
    out: Dict[str, float] = {f"host.faults.{k.value}": 0 for k in FaultKind if k is not FaultKind.NONE}
    out["host.fault_time_us"] = 0.0
    for name, inst in registry.counters():
        head, _, kind = name.rpartition(".fault.")
        if head and f"host.faults.{kind}" in out:
            out[f"host.faults.{kind}"] += inst.read()
    for name, inst in registry.histograms():
        if name.endswith(".fault.time_us"):
            out["host.fault_time_us"] += inst.sum
    return out


def _diff(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {k: after[k] - before.get(k, 0) for k in after}


def _report_counts(report, served_total: int) -> Dict[str, float]:
    stats = list(report.host_stats.values())
    counts: Dict[str, float] = {
        "storage.requests": sum(s.device_requests for s in stats),
        "storage.bytes_read": sum(s.device_bytes_read for s in stats),
        "storage.queue_wait_us": round(sum(s.device_queue_wait_us for s in stats), 3),
        "cluster.evictions": sum(s.evictions for s in stats),
        "cluster.admission_wait_us": round(sum(s.admission_wait_us for s in stats), 3),
        "faults.retries": sum(s.retries for s in stats),
        "faults.hedges": sum(s.hedges for s in stats),
        "faults.attempts_per_arrival": report.retry_amplification(),
    }
    for kind in StartKind:
        counts[f"cluster.start_share.{kind.value}"] = (
            report.count(kind) / served_total if served_total else 0.0
        )
    summary = report.fault_summary
    counts["durability.detected"] = summary.get("corruptions_detected", 0)
    counts["durability.repairs"] = summary.get("repairs", 0)
    counts["durability.silent_corrupt_serves"] = summary.get("silent_corrupt_serves", 0)
    return counts


class Workload:
    name = ""

    def __init__(self, seed: int, seconds: float, workdir: Path):
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir

    def run_round(self, mark: Callable[[], Any]) -> Round:
        raise NotImplementedError



# -- restore-cold --------------------------------------------------------


class RestoreCold(Workload):
    name = "restore-cold"

    def cells(self) -> List[Tuple[str, Policy, InputSpec]]:
        """Input sizes on a log-uniform grid over Fig. 8's 1/2x-2x of
        input A; the seed picks each input's contents. (Sizes drawn by
        the seed move the p90, the 12th-slowest of 120 cells, by 10%
        from seed to seed.)"""
        rng = _rng(self.name, self.seed)
        sizes = max(1, round(self.seconds * SIZES_PER_SECOND))
        low, high = math.log(0.5), math.log(2.0)
        cells = []
        for function in RESTORE_FUNCTIONS:
            for stratum in range(sizes):
                position = (stratum + 0.5) / sizes
                spec = InputSpec(
                    content_id=rng.randrange(2, 10_000),
                    size_ratio=round(math.exp(low + position * (high - low)), 4),
                )
                for policy in MAIN_POLICIES:
                    cells.append((function, policy, spec))
        return cells

    def run_round(self, mark) -> Round:
        cells = self.cells()
        rnd = Round(attempted=len(cells))
        settle()
        rnd.marks.append(mark())
        started = rnd.begin_setup()
        reset_trace_cache()
        trace_started = perf_counter()
        for function, _, spec in cells:
            workloads_base.generate_trace_pair(get_profile(function), INPUT_A, spec)
        rnd.trace_s = perf_counter() - trace_started
        platform, handles = fresh_platform(functions=RESTORE_FUNCTIONS)
        for function in RESTORE_FUNCTIONS:
            for policy in MAIN_POLICIES:
                platform.ensure_record(handles[function], INPUT_A, policy)
        events_before = platform.env.events_processed
        rnd.end_setup(started)
        settle()
        rnd.marks.append(mark())
        rnd.begin_serving()
        results = []
        device = platform.device
        storage = [0, 0, 0.0]
        for function, policy, spec in cells:
            results.append(
                rnd.time_unit(functools.partial(platform.invoke, handles[function], spec, policy))
            )
            storage[0] += device.stats.requests
            storage[1] += device.stats.bytes_read
            storage[2] += device.stats.queue_wait_us
        rnd.marks.append(mark())
        rnd.end_serving()
        rnd.events = platform.env.events_processed - events_before
        rnd.outcomes = {"ok": len(results)}
        rnd.ok_latencies_us = [r.total_us for r in results]
        rnd.checksum_us = round(sum(rnd.ok_latencies_us), 3)
        counts: Dict[str, float] = {
            f"host.faults.{k.value}": 0 for k in FaultKind if k is not FaultKind.NONE
        }
        for r in results:
            for rec in r.fault_records:
                if rec.kind is not FaultKind.NONE:
                    counts[f"host.faults.{rec.kind.value}"] += 1
        counts["host.fault_time_us"] = round(sum(r.fault_time_us for r in results), 3)
        counts["core.fetch_bytes"] = sum(r.fetch_bytes for r in results)
        counts["core.fetch_time_us"] = round(sum(r.fetch_time_us for r in results), 3)
        counts["storage.requests"] = storage[0]
        counts["storage.bytes_read"] = storage[1]
        counts["storage.queue_wait_us"] = round(storage[2], 3)
        rnd.counts = counts
        rnd.extra["cells"] = [
            (function, policy, spec, result)
            for (function, policy, spec), result in zip(cells, results)
        ]
        for (function, policy, _), result in zip(cells, results):
            if result.total_us <= 0 or result.function != function or result.policy is not policy:
                rnd.errors.append(f"bad result for {function}/{policy.value}")
        return rnd


def phase_table(cells) -> Dict[str, Dict[str, float]]:
    """Mean simulated phases per policy, from InvocationResult fields."""
    table: Dict[str, Dict[str, float]] = {}
    for policy in MAIN_POLICIES:
        rows = [r for _, p, _, r in cells if p is policy]
        if not rows:
            continue
        n = len(rows)
        entry = {
            "vmm_setup_ms": sum(r.setup_us for r in rows) / n / 1000.0,
            "fetch_ms": sum(r.fetch_time_us for r in rows) / n / 1000.0,
            "fetch_mb": sum(r.fetch_bytes for r in rows) / n / 1e6,
        }
        fault_ms = 0.0
        for kind in FaultKind:
            if kind is FaultKind.NONE:
                continue
            ms = sum(
                rec.duration_us for r in rows for rec in r.fault_records if rec.kind is kind
            ) / n / 1000.0
            entry[f"fault_{kind.value}_ms"] = ms
            fault_ms += ms
        entry["fault_ms"] = fault_ms
        entry["compute_ms"] = sum(r.invoke_us for r in rows) / n / 1000.0 - fault_ms
        entry["total_ms"] = sum(r.total_us for r in rows) / n / 1000.0
        table[policy.value] = entry
    return table


def speedups(cells) -> Dict[str, float]:
    """Geometric-mean speedup of FaaSnap over Firecracker and REAP
    across the (function, input) pairs measured (claim C1's method)."""
    totals: Dict[Tuple[str, InputSpec], Dict[Policy, float]] = {}
    for function, policy, spec, result in cells:
        totals.setdefault((function, spec), {})[policy] = result.total_us
    out = {}
    for other in (Policy.FIRECRACKER, Policy.REAP):
        ratios = [t[other] / t[Policy.FAASNAP] for t in totals.values()]
        out[other.value] = math.exp(sum(math.log(x) for x in ratios) / len(ratios))
    return out


# -- cluster-steady --------------------------------------------------------


class ClusterSteady(Workload):
    name = "cluster-steady"
    #: Virtual seconds of arrivals per ``--seconds``, over all rounds.
    virtual_s_per_second = 120.0

    def duration_us(self) -> float:
        return self.seconds * self.virtual_s_per_second / ROUNDS * 1e6

    def config(self) -> ClusterConfig:
        return ClusterConfig(
            num_hosts=CLUSTER_HOSTS,
            placement="least-loaded",
            keep_alive_ttl_us=KEEP_ALIVE_TTL_US,
            test_input=test_input_for(self.seed),
        )

    def inputs(self):
        fleet = perf_harness_fleet()
        trace = generate_arrivals(fleet, self.duration_us(), seed=self.seed)
        return fleet, trace

    def run_round(self, mark) -> Round:
        rnd = Round()
        settle()
        rnd.marks.append(mark())
        started = rnd.begin_setup()
        reset_trace_cache()
        fleet, trace = self.inputs()
        config = self.config()
        rnd.trace_s = _fill_cluster_traces(fleet, config)
        service = ClusterService(ClusterSimulator(fleet, config))
        service.execute(InjectCommand.from_arrivals(trace.arrivals))
        service.execute(AdvanceCommand(ms=0))
        rnd.end_setup(started)
        before = _registry_counts(service.simulator.registry)
        events_before = service.env.events_processed
        settle()
        rnd.marks.append(mark())
        rnd.begin_serving()
        commands = [AdvanceCommand(ms=SERVE_WINDOW_MS)] * math.ceil(
            self.duration_us() / 1000.0 / SERVE_WINDOW_MS
        )
        for command in commands + [DrainCommand()]:
            rnd.time_unit(functools.partial(service.execute, command))
        rnd.marks.append(mark())
        rnd.end_serving()
        self._collect(rnd, trace, service.report)
        rnd.events = service.env.events_processed - events_before
        rnd.counts.update(_diff(_registry_counts(service.simulator.registry), before))
        rnd.extra["commands"] = len(commands) + 3
        return rnd

    @staticmethod
    def _collect(rnd: Round, trace, report) -> None:
        served = report.served
        rnd.attempted = len(trace.arrivals)
        rnd.outcomes = _outcome_counts(served)
        rnd.ok_latencies_us = [s.latency_us for s in served if s.outcome in SERVED_OK]
        rnd.checksum_us = round(sum(s.latency_us for s in served), 3)
        rnd.counts = _report_counts(report, len(served))
        check_accounting(trace.arrivals, served, rnd.errors)


# -- cluster-sharded ---------------------------------------------------------


class ClusterSharded(ClusterSteady):
    """The cluster-steady fleet and arrivals served by the sharded
    router, for the ``shard.*`` metrics of the traced cluster-steady
    run.

    ``ShardedClusterSimulator.run`` performs prep and serving in one
    call, so a round's set-up is a run over an empty trace (fleet and
    trace synthesis, worker start, prep, teardown); the traced run
    subtracts its router time from the full run's. The full run is one
    call, scaled to the reference speed by kernel samples taken on
    either side. Its event count and fault counts come from the merged
    shard telemetry and include the prep epoch."""

    name = "cluster-sharded"
    shards = SHARDS

    def run_round(self, mark) -> Round:
        rnd = Round()
        settle()
        rnd.marks.append(mark())
        started = rnd.begin_setup()
        reset_trace_cache()
        fleet, trace = self.inputs()
        config = self.config()
        rnd.trace_s = _fill_cluster_traces(fleet, config)
        ShardedClusterSimulator(fleet, config, shards=self.shards).run(
            ArrivalTrace(arrivals=[], duration_us=trace.duration_us)
        )
        rnd.end_setup(started)
        settle()
        rnd.marks.append(mark())
        before = reference_samples()
        run_started = perf_counter()
        simulator = ShardedClusterSimulator(fleet, config, shards=self.shards)
        report = simulator.run(trace)
        rnd.extra["run_s"] = perf_counter() - run_started
        rnd.extra["run_ref_s"] = bracket(before, reference_samples())
        rnd.marks.append(mark())
        self._collect(rnd, trace, report)
        counters = simulator.merged_metrics["counters"]
        rnd.events = counters.get("sim.engine.events", 0)
        for kind in FaultKind:
            if kind is FaultKind.NONE:
                continue
            rnd.counts[f"host.faults.{kind.value}"] = sum(
                v for k, v in counters.items() if k.endswith(f".fault.{kind.value}")
            )
        rnd.counts["host.fault_time_us"] = sum(
            h["sum"]
            for k, h in simulator.merged_metrics["histograms"].items()
            if k.endswith(".fault.time_us")
        )
        rnd.extra["windows"] = simulator.windows_run
        return rnd



# -- cluster-chaos -------------------------------------------------------------


def chaos_plan(duration_us: float) -> Dict[str, Any]:
    """Fault windows at fixed fractions of the serving epoch: a device
    brownout with I/O errors, a host crash and reboot, and snapshot
    corruptions on several hosts."""
    d = duration_us
    return {
        "device_faults": [
            {
                "scope": "host1",
                "start_us": 0.15 * d,
                "duration_us": 0.2 * d,
                "latency_factor": 8.0,
                "bandwidth_factor": 0.25,
                "error_rate": 0.02,
            }
        ],
        "host_crashes": [
            {"host": "host2", "at_us": 0.45 * d, "reboot_after_us": 0.1 * d}
        ],
        "corruptions": [
            {"host": f"host{h}", "function": f"fn{f:04d}", "at_us": frac * d}
            for h, f, frac in (
                (0, 0, 0.05),
                (1, 2, 0.3),
                (3, 1, 0.55),
                (0, 4, 0.7),
                (2, 6, 0.85),
            )
        ],
    }


def build_chaos_service(spec: Dict[str, Any], journal=None) -> ClusterService:
    """The chaos service for a journal header ``spec``. The service
    spec of :func:`repro.service.core.build_service` has no recovery
    key, so the benchmark builds (and on replay rebuilds) the service
    itself from its own spec."""
    fleet = perf_harness_fleet()
    config = ClusterConfig(
        num_hosts=CLUSTER_HOSTS,
        placement="least-loaded",
        keep_alive_ttl_us=KEEP_ALIVE_TTL_US,
        test_input=InputSpec(**spec["test_input"]),
        recovery=RecoveryPolicy.full(),
        assume_snapshots_exist=True,
        seed=spec["seed"],
        durability=DurabilityPolicy.from_dict(spec["durability"]),
    )
    return ClusterService(
        ClusterSimulator(fleet, config),
        fault_plan=FaultPlan.from_dict(spec["fault_plan"]),
        journal=journal,
        sampler_interval_us=spec["sampler_interval_us"],
        causal=CausalTracer(),
        slo=SloMonitor.default(),
        flight=FlightRecorder(),
    )


def chaos_commands(duration_us: float):
    """The round's command stream after inject: prep, then fixed
    virtual windows with SLO/durability/telemetry probes, then drain."""
    yield AdvanceCommand(ms=0)
    windows = math.ceil(duration_us / 1000.0 / SERVE_WINDOW_MS)
    for w in range(windows):
        yield AdvanceCommand(ms=SERVE_WINDOW_MS)
        if w % 5 == 4:
            yield SloStatusCommand()
            yield DurabilityStatusCommand()
            yield SnapshotTelemetryCommand()
    yield DrainCommand()


class ClusterChaos(ClusterSteady):
    """The first round of a run executes the commands live and writes
    the journal; every later round rebuilds the service from that
    journal and re-executes its entries, comparing each recorded digest
    (the check ``replay_journal`` makes). A replay round does the same
    set-up and serving work as the live round, so it is timed like
    one, and the journal check costs no extra round."""

    name = "cluster-chaos"

    def __init__(self, seed: int, seconds: float, workdir: Path):
        super().__init__(seed, seconds, workdir)
        self.journaled = False

    def spec(self) -> Dict[str, Any]:
        test_input = test_input_for(self.seed)
        return {
            "workload": self.name,
            "seed": self.seed,
            "duration_us": self.duration_us(),
            "test_input": dataclasses.asdict(test_input),
            "fault_plan": chaos_plan(self.duration_us()),
            "durability": DurabilityPolicy(
                enabled=True, replicas=2, scrub_interval_us=30_000_000.0
            ).as_dict(),
            "sampler_interval_us": 5_000_000.0,
        }

    def journal_path(self) -> Path:
        return self.workdir / f"chaos-seed{self.seed}.jsonl"

    def run_round(self, mark) -> Round:
        rnd = Round()
        settle()
        rnd.marks.append(mark())
        started = rnd.begin_setup()
        reset_trace_cache()
        fleet, trace = self.inputs()
        # Same record and test inputs as the chaos service's config.
        rnd.trace_s = _fill_cluster_traces(fleet, self.config())
        path = self.journal_path()
        if self.journaled:
            spec, entries = read_journal(path)
            service = build_chaos_service(spec)
            steps = [functools.partial(service.execute_entry, e) for e in entries]
        else:
            spec = self.spec()
            journal = JournalWriter(path, spec)
            service = build_chaos_service(spec, journal)
            commands = [InjectCommand.from_arrivals(trace.arrivals)]
            commands += chaos_commands(spec["duration_us"])
            steps = [functools.partial(service.execute, c) for c in commands]
        results = [steps[0](), steps[1]()]  # inject, then advance 0: the prep epoch
        rnd.end_setup(started)
        before = _registry_counts(service.simulator.registry)
        events_before = service.env.events_processed
        settle()
        rnd.marks.append(mark())
        rnd.begin_serving()
        results += [rnd.time_unit(step) for step in steps[2:]]
        rnd.marks.append(mark())
        rnd.end_serving()
        if self.journaled:
            rnd.errors.extend(_replay_mismatches(entries, results))
        else:
            journal.close()
            self.journaled = True
        self._collect(rnd, trace, service.report)
        rnd.events = service.env.events_processed - events_before
        rnd.counts.update(_diff(_registry_counts(service.simulator.registry), before))
        if rnd.counts["durability.silent_corrupt_serves"]:
            rnd.errors.append(
                f"{rnd.counts['durability.silent_corrupt_serves']} silent corrupt serves"
            )
        rnd.extra["causal_events"] = len(service.causal.all_events())
        rnd.extra["journal_bytes"] = path.stat().st_size
        rnd.extra["commands"] = len(steps)
        return rnd


def _replay_mismatches(entries, results) -> List[str]:
    """Journal digest fields that a replay did not reproduce."""
    return [
        f"journal replay: entry {entry.get('seq')} {key}: "
        f"{value!r} != {result['digest'].get(key)!r}"
        for entry, result in zip(entries, results)
        for key, value in entry.get("digest", {}).items()
        if result["digest"].get(key) != value
    ]


WORKLOADS = {cls.name: cls for cls in (RestoreCold, ClusterSteady, ClusterChaos)}


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest reaped
    child (the shard workers), MB."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0
