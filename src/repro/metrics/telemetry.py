"""Unified cross-layer telemetry: registry, sampler, and profiler.

The paper's evidence is observational — Figure 2 is a fault-time
histogram, Table 3 decomposes restore time per component, the
artifact inspects per-invocation traces — and this module gives the
simulation the matching instrumentation surface. One
:class:`MetricsRegistry` per run (every
:class:`~repro.sim.Environment` owns one) holds typed instruments
from every layer, namespaced like ``host0.page_cache.hits``:

* :class:`Counter` / :class:`PullCounter` — monotonic counts, either
  owned (incremented at aggregation points) or *pulled* from an
  existing plain attribute on read;
* :class:`Gauge` — an instantaneous value read through a closure
  (device queue depth, cache occupancy, idle-pool size);
* :class:`HistogramInstrument` — bucketed distributions over
  :class:`repro.metrics.stats.Histogram` (fault handling times with
  the Figure 2 edges).

**Zero-perturbation invariant.** Instruments never schedule events
and hot paths never push samples: gauges and pull-counters read live
state only when collected, and per-fault data is absorbed in one pass
at invocation end from the columnar fault log
(:class:`~repro.host.fault.FaultStats`) the simulation already keeps.
A run therefore produces bit-identical results with telemetry read or
ignored — the golden parity tests machine-check this.

:class:`Sampler` turns gauges into time series by polling them on a
configurable *virtual-clock* interval; it is the one telemetry piece
that does schedule events (its own timeouts), and determinism still
holds: simulated results are bit-identical with the sampler on or
off, because fault batching falls back to the event path whenever the
heap holds a nearer event.

:class:`Profiler` is a simulated ``perf`` for the DES engine: it
attributes virtual time and event counts to named components —
exclusive ``phase.*`` components (record, per-policy setup, invoke,
loader drain) that tile the timeline and power the coverage figure,
plus overlapping detail components (per-kind fault time, device
service vs queueing, loader fetch) for drill-down.
"""

from __future__ import annotations

import collections
import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from functools import reduce
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.metrics.report import render_table
from repro.metrics.stats import FIGURE2_EDGES, Histogram


class TelemetryError(ValueError):
    """Raised for instrument misuse (name/kind collisions)."""


class Counter:
    """A monotonic count owned by the instrument (``inc`` to bump)."""

    kind = "counter"
    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def read(self):
        return self.value


class PullCounter:
    """A monotonic count read from existing state via a closure.

    This is how hot-path counters (``DeviceStats.requests``,
    ``PageCache.insertions``, ``Environment.events_processed``) join
    the registry without the hot paths touching an instrument.
    """

    kind = "counter"
    __slots__ = ("name", "_fn")

    def __init__(self, name: str, fn: Callable[[], Any]):
        self.name = name
        self._fn = fn

    def read(self):
        return self._fn()


class Gauge:
    """An instantaneous value read through a closure."""

    kind = "gauge"
    __slots__ = ("name", "_fn")

    def __init__(self, name: str, fn: Callable[[], Any]):
        self.name = name
        self._fn = fn

    def read(self):
        return self._fn()


class HistogramInstrument:
    """A bucketed distribution plus a running sum.

    ``observe`` uses a bisect over the edges (the wrapped
    :meth:`Histogram.add` is a linear scan, fine for post-hoc use but
    not for absorbing hundreds of thousands of fault records).
    """

    kind = "histogram"
    __slots__ = ("name", "histogram", "sum")

    def __init__(self, name: str, edges: Iterable[float]):
        self.name = name
        self.histogram = Histogram(edges=list(edges))
        self.sum = 0.0

    def observe(self, value: float) -> None:
        index = bisect_right(self.histogram.edges, value) - 1
        if index < 0:
            index = 0
        self.histogram.counts[index] += 1
        self.sum += value

    def observe_all(self, values: Sequence[float]) -> None:
        """Observe each of ``values`` in order: the same bucket counts
        and the same running sum, to the bit, as one :meth:`observe`
        per value. Fault logs repeat a few durations many times, so
        each distinct value is bucketed once."""
        counts = self.histogram.counts
        edges = self.histogram.edges
        for value, n in collections.Counter(values).items():
            rank = bisect_right(edges, value)
            counts[rank - 1 if rank > 0 else 0] += n
        self.sum = reduce(operator.add, values, self.sum)

    @property
    def count(self) -> int:
        return self.histogram.total


Instrument = Any  # Counter | PullCounter | Gauge | HistogramInstrument


class MetricsRegistry:
    """All instruments of one run, plus its :class:`Profiler`.

    Instrument creation is idempotent per (name, kind): asking for an
    existing counter returns it, asking for an existing name with a
    different kind raises. Multi-instance components (per-host
    devices and caches) reserve a namespace prefix through
    :meth:`unique_prefix` so ``host0.device.requests`` and a second
    device on the same clock never collide.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Instrument] = {}
        self._prefixes: set = set()
        self.profiler = Profiler()

    # -- creation ------------------------------------------------------

    def _existing(self, name: str, cls: type) -> Optional[Instrument]:
        """The instrument already registered as ``name``, if any;
        raises when it is not a ``cls``."""
        existing = self._instruments.get(name)
        if existing is not None and type(existing) is not cls:
            raise TelemetryError(
                f"instrument {name!r} already registered as "
                f"{type(existing).__name__}"
            )
        return existing

    def _add(self, instrument: Instrument) -> Instrument:
        self._instruments[instrument.name] = instrument
        return instrument

    def counter(self, name: str) -> Counter:
        return self._existing(name, Counter) or self._add(Counter(name))

    def pull_counter(self, name: str, fn: Callable[[], Any]) -> PullCounter:
        return self._existing(name, PullCounter) or self._add(
            PullCounter(name, fn)
        )

    def gauge(self, name: str, fn: Callable[[], Any]) -> Gauge:
        return self._existing(name, Gauge) or self._add(Gauge(name, fn))

    def histogram(
        self, name: str, edges: Optional[Iterable[float]] = None
    ) -> HistogramInstrument:
        return self._existing(name, HistogramInstrument) or self._add(
            HistogramInstrument(name, FIGURE2_EDGES if edges is None else edges)
        )

    def unique_prefix(self, base: str) -> str:
        """Reserve an unused namespace prefix (``base``, ``base.2``,
        ``base.3``, ...)."""
        prefix = base
        suffix = 2
        while prefix in self._prefixes:
            prefix = f"{base}.{suffix}"
            suffix += 1
        self._prefixes.add(prefix)
        return prefix

    # -- access --------------------------------------------------------

    def get(self, name: str) -> Optional[Instrument]:
        return self._instruments.get(name)

    def counters(self) -> Iterator[Tuple[str, Instrument]]:
        for name, inst in self._instruments.items():
            if inst.kind == "counter":
                yield name, inst

    def gauges(self) -> Iterator[Tuple[str, Gauge]]:
        for name, inst in self._instruments.items():
            if inst.kind == "gauge":
                yield name, inst

    def histograms(self) -> Iterator[Tuple[str, HistogramInstrument]]:
        for name, inst in self._instruments.items():
            if inst.kind == "histogram":
                yield name, inst

    def collect(self) -> Dict[str, Dict[str, Any]]:
        """One plain-dict snapshot of every instrument, grouped by
        kind — picklable, JSON-ready, and mergeable across shards."""
        counters: Dict[str, Any] = {}
        gauges: Dict[str, Any] = {}
        histograms: Dict[str, Any] = {}
        for name, inst in self._instruments.items():
            if inst.kind == "counter":
                counters[name] = inst.read()
            elif inst.kind == "gauge":
                gauges[name] = inst.read()
            else:
                histograms[name] = {
                    "edges": list(inst.histogram.edges),
                    "counts": list(inst.histogram.counts),
                    "count": inst.count,
                    "sum": inst.sum,
                }
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }


# -- profiler ----------------------------------------------------------


@dataclass
class ComponentStat:
    """Virtual time and event count attributed to one component."""

    time_us: float = 0.0
    events: int = 0


class Profiler:
    """Attributes virtual time and event counts per component.

    Components whose names start with ``phase.`` are *exclusive*: they
    tile the run's timeline (record phase, per-policy setup, invoke,
    loader drain) and their sum against the final clock yields the
    coverage figure, with the remainder reported explicitly as
    unattributed. All other components are *detail* and may overlap
    phases (per-kind fault time runs inside ``phase.invoke``; device
    service time runs inside whatever blocked on the device).
    """

    PHASE_PREFIX = "phase."

    def __init__(self) -> None:
        self._components: Dict[str, ComponentStat] = {}
        self._pulls: Dict[str, Callable[[], Tuple[float, int]]] = {}

    def add(self, component: str, time_us: float, events: int = 1) -> None:
        """Charge ``time_us`` and ``events`` to ``component``."""
        stat = self._components.get(component)
        if stat is None:
            stat = self._components[component] = ComponentStat()
        stat.time_us += time_us
        stat.events += events

    def phase(self, name: str, start_us: float, end_us: float) -> None:
        """Charge the exclusive phase ``name`` with ``[start, end)``."""
        self.add(self.PHASE_PREFIX + name, end_us - start_us)

    def add_pull(
        self, component: str, fn: Callable[[], Tuple[float, int]]
    ) -> None:
        """Register a component whose ``(time_us, events)`` is read
        from live state at collection time (device busy counters)."""
        self._pulls[component] = fn

    def components(self) -> Dict[str, ComponentStat]:
        """Owned plus pulled components, as one snapshot."""
        out = {
            name: ComponentStat(stat.time_us, stat.events)
            for name, stat in self._components.items()
        }
        for name, fn in self._pulls.items():
            time_us, events = fn()
            stat = out.get(name)
            if stat is None:
                out[name] = ComponentStat(time_us, events)
            else:
                stat.time_us += time_us
                stat.events += events
        return out

    def attributed_us(self) -> float:
        """Virtual time covered by the exclusive ``phase.*`` components."""
        return sum(
            stat.time_us
            for name, stat in self._components.items()
            if name.startswith(self.PHASE_PREFIX)
        )

    def coverage(self, total_us: float) -> float:
        """Fraction of ``total_us`` attributed to named phases (can
        exceed 1.0 when phases ran concurrently, e.g. cluster serves)."""
        if total_us <= 0:
            return 1.0
        return self.attributed_us() / total_us

    def as_dict(self) -> Dict[str, Dict[str, Any]]:
        return {
            name: {"time_us": stat.time_us, "events": stat.events}
            for name, stat in sorted(self.components().items())
        }

    def report_rows(
        self, total_us: float, top: Optional[int] = None
    ) -> List[List[Any]]:
        """``[component, time_ms, events, share%]`` rows, hottest
        first, with the unattributed remainder as an explicit row —
        never silently dropped."""
        components = self.components()
        ranked = sorted(
            components.items(), key=lambda kv: (-kv[1].time_us, kv[0])
        )
        if top is not None:
            ranked = ranked[:top]
        rows: List[List[Any]] = []
        for name, stat in ranked:
            share = 100.0 * stat.time_us / total_us if total_us > 0 else 0.0
            rows.append([name, stat.time_us / 1000.0, stat.events, share])
        unattributed = max(0.0, total_us - self.attributed_us())
        share = 100.0 * unattributed / total_us if total_us > 0 else 0.0
        rows.append(["(unattributed)", unattributed / 1000.0, "", share])
        return rows


# -- sampler -----------------------------------------------------------


class Sampler:
    """Polls every gauge on a fixed virtual-clock interval.

    The sampler is pull-based: each tick reads the registry's gauges
    (closures over live state) and appends one row; nothing else in
    the simulation knows it exists. Its timeouts do enter the event
    heap, which can flip individual fault services from the batched
    fast path to the event path — by design those produce bit-identical
    results, so sampling never perturbs simulated numbers.

    Lifecycle: :meth:`start` spawns the polling process, :meth:`stop`
    lets it exit at its next tick. Callers driving
    ``Environment.run()`` with no ``until`` must :meth:`stop` first or
    the run never drains.
    """

    def __init__(self, registry: MetricsRegistry, env, interval_us: float):
        if interval_us <= 0:
            raise TelemetryError("sampler interval must be positive")
        self.registry = registry
        self.env = env
        self.interval_us = float(interval_us)
        #: ``(virtual time, {gauge name: value})`` rows.
        self.samples: List[Tuple[float, Dict[str, Any]]] = []
        self._proc = None
        self._stopped = False

    def sample(self) -> None:
        """Take one snapshot of every gauge right now."""
        row = {name: gauge.read() for name, gauge in self.registry.gauges()}
        self.samples.append((self.env.now, row))

    def _run(self):
        while not self._stopped:
            self.sample()
            yield self.env.timeout(self.interval_us)

    def start(self) -> None:
        if self._proc is not None:
            return
        self._stopped = False
        self._proc = self.env.process(self._run(), name="telemetry.sampler")

    def stop(self) -> None:
        """Stop polling, flushing a final sample at the stop horizon.

        Virtual time usually halts between ticks; without the flush
        the last partial window would be dropped and gauges read at
        the stop instant would never appear in the series. The flush
        is a synchronous read — no event enters the heap, so it
        cannot perturb the simulation.
        """
        self._stopped = True
        if self._proc is not None and (
            not self.samples or self.samples[-1][0] < self.env.now
        ):
            self.sample()

    # -- queries -------------------------------------------------------

    def gauge_names(self) -> List[str]:
        names = set()
        for _, row in self.samples:
            names.update(row)
        return sorted(names)

    def values(self, name: str) -> List[Any]:
        return [row[name] for _, row in self.samples if name in row]

    def percentile(self, name: str, percentile: float) -> float:
        """Nearest-rank percentile over the gauge's sampled values
        (the :meth:`FleetReport.latency_percentile` convention)."""
        ordered = sorted(self.values(name))
        if not ordered:
            return 0.0
        if percentile <= 0:
            return ordered[0]
        rank = math.ceil(percentile / 100.0 * len(ordered))
        return ordered[min(len(ordered), rank) - 1]

    def as_dict(self) -> Dict[str, Any]:
        """Columnar JSON-ready form: one time axis, one value list per
        gauge (``None`` where a late-registered gauge has no sample)."""
        names = self.gauge_names()
        return {
            "interval_us": self.interval_us,
            "times_us": [t for t, _ in self.samples],
            "gauges": {
                name: [row.get(name) for _, row in self.samples]
                for name in names
            },
        }


# -- per-host instrument bundle ---------------------------------------


class HostTelemetry:
    """The per-host instrument bundle for fault/cache/vcpu accounting.

    VM-side objects (``MicroVM``, ``FaultHandler``,
    ``UserfaultfdManager``) are ephemeral — one per invocation — so
    they carry no instruments of their own. Instead the per-host
    :class:`~repro.host.page_cache.PageCache` owns one of these
    bundles, and invocation teardown *absorbs* the run's fault records
    into it in a single pass (the hot fault paths stay untouched).
    """

    __slots__ = (
        "registry",
        "root",
        "profiler",
        "fault_time",
        "cache_hits",
        "cache_misses",
        "cache_shared_waits",
        "vcpu_fast",
        "vcpu_slow",
        "uffd_delegated",
        "invocations",
        "record_phases",
        "_fault_counters",
    )

    def __init__(self, registry: MetricsRegistry, root: str):
        self.registry = registry
        self.root = root
        self.profiler = registry.profiler
        counter = registry.counter
        self.fault_time = registry.histogram(
            f"{root}.fault.time_us", FIGURE2_EDGES
        )
        self.cache_hits = counter(f"{root}.page_cache.hits")
        self.cache_misses = counter(f"{root}.page_cache.misses")
        self.cache_shared_waits = counter(f"{root}.page_cache.shared_waits")
        self.vcpu_fast = counter(f"{root}.vcpu.fast_path_accesses")
        self.vcpu_slow = counter(f"{root}.vcpu.event_path_accesses")
        self.uffd_delegated = counter(f"{root}.uffd.delegated_faults")
        self.invocations = counter(f"{root}.invocations")
        self.record_phases = counter(f"{root}.record_phases")
        #: Fault-log kind code -> (counter, profiler label), created
        #: when the kind is first absorbed (an int key: no enum hash).
        self._fault_counters: Dict[int, Tuple[Counter, str]] = {}

    def absorb_fault_records(self, log) -> None:
        """Fold one VM's fault log (a
        :class:`~repro.host.fault.FaultStats`) into the host's counters,
        fault-time histogram, and profiler components.

        Cache semantics per row: a MINOR fault is a page-cache hit; a
        MAJOR fault that issued its own block requests is a miss; a
        MAJOR fault with none waited on another thread's in-flight
        read (the shared-wait path of paper §6.5/§6.6).

        The fold works on the columns: kind codes key the counters, so
        no enum is hashed. Each duration is observed in row order,
        each kind's total is summed in row order, and a kind's counter
        is created where its first row is, so the result is
        bit-identical to a fold over the records one at a time.
        """
        from repro.host.fault import KINDS, FaultKind

        self.fault_time.observe_all(log.duration_us)
        counters = self._fault_counters
        for code, count, total_us in log.kind_totals():
            entry = counters.get(code)
            if entry is None:
                value = KINDS[code].value
                entry = counters[code] = (
                    self.registry.counter(f"{self.root}.fault.{value}"),
                    f"fault.{value}",
                )
            ctr, label = entry
            ctr.value += count
            self.profiler.add(label, total_us, count)
        majors = log.block_requests(FaultKind.MAJOR)
        misses = len(majors) - majors.count(0)
        self.cache_hits.value += log.count(FaultKind.MINOR)
        self.cache_misses.value += misses
        self.cache_shared_waits.value += len(majors) - misses


# -- run report --------------------------------------------------------


def hit_rates(registry: MetricsRegistry) -> List[Tuple[str, int, int, float]]:
    """Per-host page-cache ``(root, hits, misses, rate)`` rows."""
    rows = []
    for name, inst in registry.counters():
        if not name.endswith(".page_cache.hits"):
            continue
        root = name[: -len(".page_cache.hits")]
        hits = inst.read()
        misses_inst = registry.get(f"{root}.page_cache.misses")
        misses = misses_inst.read() if misses_inst is not None else 0
        total = hits + misses
        rate = hits / total if total else 0.0
        rows.append((root, hits, misses, rate))
    return rows


def render_run_report(
    registry: MetricsRegistry,
    total_us: float,
    sampler: Optional[Sampler] = None,
    top: int = 12,
) -> str:
    """The ``python -m repro telemetry`` run report: profiler phase
    coverage, top-N hot components, page-cache hit rates, counters,
    and sampled-gauge percentiles."""
    profiler = registry.profiler
    sections: List[str] = []

    phase_rows = [
        row
        for row in profiler.report_rows(total_us)
        if row[0].startswith(Profiler.PHASE_PREFIX)
        or row[0] == "(unattributed)"
    ]
    coverage = profiler.coverage(total_us)
    sections.append(
        render_table(
            ["phase", "time_ms", "events", "share_%"],
            phase_rows,
            title=(
                f"Profiler phases over {total_us / 1000:.2f} ms virtual "
                f"({coverage:.1%} attributed)"
            ),
        )
    )

    detail_rows = [
        row
        for row in profiler.report_rows(total_us, top=None)
        if not row[0].startswith(Profiler.PHASE_PREFIX)
        and row[0] != "(unattributed)"
    ][:top]
    if detail_rows:
        sections.append(
            render_table(
                ["component", "time_ms", "events", "share_%"],
                detail_rows,
                title=f"Top {len(detail_rows)} components (may overlap phases)",
            )
        )

    rate_rows = [
        [root, hits, misses, rate * 100.0]
        for root, hits, misses, rate in hit_rates(registry)
    ]
    if rate_rows:
        sections.append(
            render_table(
                ["host", "cache_hits", "cache_misses", "hit_rate_%"],
                rate_rows,
                title="Page-cache hit rates",
            )
        )

    counter_rows = sorted(
        [name, inst.read()] for name, inst in registry.counters()
    )
    sections.append(
        render_table(["counter", "value"], counter_rows, title="Counters")
    )

    if sampler is not None and sampler.samples:
        gauge_rows = [
            [
                name,
                len(sampler.values(name)),
                sampler.percentile(name, 50),
                sampler.percentile(name, 95),
                max(sampler.values(name)),
            ]
            for name in sampler.gauge_names()
        ]
        sections.append(
            render_table(
                ["gauge", "samples", "p50", "p95", "max"],
                gauge_rows,
                title=(
                    f"Sampled gauges (every "
                    f"{sampler.interval_us / 1000:g} ms virtual)"
                ),
            )
        )

    return "\n\n".join(sections)
