"""The vCPU: replays a guest access trace through the fault handler.

A trace is a sequence of steps, each "compute for ``think_us``, then
touch ``page``" (a store also carries the content ``value`` it
writes). Traces contain only *first touches* plus the compute time
between them — repeated accesses to an already-mapped page cost
nothing at the host, so folding them into think time loses no
fidelity while keeping the simulation fast.

A trace is held as :class:`TraceColumns`: one list per field (pages,
write flags, values, think times). Trace synthesis writes straight
into them (:mod:`repro.workloads.base`). :class:`GuestAccess` is the
one-object-per-step form for hand-written traces: tests pass a list
of them, and :meth:`TraceColumns.of` turns it into columns.

The vCPU serves a trace as runs: the fault handler's run loop serves
accesses until one needs the event heap, the vCPU serves that one
access on the heap, and the next run starts after it.

When a host CPU :class:`~repro.sim.Resource` is supplied, think time
runs while holding a CPU slot; fault waits release it. With more
runnable vCPUs than slots, invocations slow down and their variance
grows — the paper's observation at 64-way parallelism (§6.6).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import compress
from typing import Any, Collection, Generator, List, Optional, Sequence, Union

from repro.host.fault import FaultHandler, FaultKind, FaultRecord, FaultStats
from repro.sim import Environment, Event, Resource


@dataclass(frozen=True, slots=True)
class GuestAccess:
    """One step of guest execution: compute, then touch a page."""

    page: int
    write: bool = False
    #: Content token stored when ``write`` (ignored for reads).
    value: Optional[int] = None
    #: Compute time preceding the access, microseconds.
    think_us: float = 0.0


class TraceColumns:
    """A guest trace as columns, kept by whoever owns the trace (a
    :class:`~repro.workloads.base.WorkloadTrace` is built around its
    own), so they live exactly as long as it does.

    ``pages[i]``, ``writes[i]`` and ``values[i]`` are step ``i``'s
    page, write flag and stored value (``None`` for a read);
    ``thinks[i]`` its think time, never negative (nothing to wait
    for); ``stores`` the ascending positions of the stores. The fault
    handler's run loop serves the trace from these columns, whole
    stretches of image pages at once.
    """

    __slots__ = (
        "pages",
        "writes",
        "values",
        "thinks",
        "stores",
        "_accesses",
        "_by_page",
        "__weakref__",
    )

    def __init__(
        self,
        pages: List[int],
        writes: List[bool],
        values: List[Optional[int]],
        thinks: List[float],
        accesses: Optional[Sequence[GuestAccess]] = None,
    ):
        self.pages = pages
        self.writes = writes
        self.values = values
        self.thinks = thinks
        self.stores = array("q", compress(range(len(pages)), writes))
        #: The steps as objects, built on the first read of
        #: :attr:`accesses` unless the columns were made from them.
        self._accesses = accesses
        #: Every position ordered by page, sorted on the first call of
        #: :meth:`positions` (only runs on a shared image make one).
        self._by_page: Optional[array] = None

    @classmethod
    def of(cls, accesses: Sequence[GuestAccess]) -> "TraceColumns":
        """The columns of a hand-written list of accesses; every
        non-positive think time is folded to 0.0."""
        return cls(
            [access.page for access in accesses],
            [access.write for access in accesses],
            [access.value for access in accesses],
            [
                think if (think := access.think_us) > 0 else 0.0
                for access in accesses
            ],
            accesses,
        )

    @property
    def accesses(self) -> Sequence[GuestAccess]:
        """The trace as :class:`GuestAccess` objects: the list the
        columns were made from, else one built from the columns."""
        if self._accesses is None:
            self._accesses = list(
                map(GuestAccess, self.pages, self.writes, self.values, self.thinks)
            )
        return self._accesses

    def with_stores(
        self, pages: Sequence[int], value: int, think_us: float
    ) -> "TraceColumns":
        """These columns followed by one store of ``value`` to each of
        ``pages``, each after ``think_us`` of compute."""
        count = len(pages)
        return TraceColumns(
            self.pages + list(pages),
            self.writes + [True] * count,
            self.values + [value] * count,
            self.thinks + [think_us if think_us > 0 else 0.0] * count,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceColumns):
            return NotImplemented
        return (
            self.pages == other.pages
            and self.writes == other.writes
            and self.values == other.values
            and self.thinks == other.thinks
        )

    def positions(
        self, pages: Collection[int], start: int, stop: int
    ) -> List[int]:
        """The ascending positions in ``[start, stop)`` of the accesses
        to any of ``pages``."""
        if not pages:
            return []
        key = self.pages.__getitem__
        by_page = self._by_page
        if by_page is None:
            by_page = self._by_page = array(
                "q", sorted(range(len(self.pages)), key=key)
            )
        found = []
        for page in pages:
            low = bisect_left(by_page, page, key=key)
            found += by_page[low : bisect_right(by_page, page, low, key=key)]
        found.sort()
        return found[bisect_left(found, start) : bisect_left(found, stop)]


class VCpuResult:
    """Outcome of running one trace.

    The faults live in the handler's log (rows ``first_row`` onward);
    ``logged`` holds one byte per access of ``trace`` (the run's
    :class:`TraceColumns`), 1 when the access logged a row, and
    ``none_starts`` the start instants of the accesses that did not
    (reads of EPT-mapped pages and plain stores, which the batched
    loop handles without allocating anything).
    :attr:`records` and :attr:`fault_count` are built from these on
    first use, so they cost nothing unless someone looks.
    """

    __slots__ = (
        "started_us",
        "finished_us",
        "_trace",
        "_log",
        "_first_row",
        "_logged",
        "_none_starts",
        "_records",
    )

    def __init__(
        self,
        started_us: float,
        finished_us: float,
        trace: TraceColumns,
        log: FaultStats,
        first_row: int,
        logged: bytearray,
        none_starts: List[float],
    ):
        self.started_us = started_us
        self.finished_us = finished_us
        self._trace = trace
        self._log = log
        self._first_row = first_row
        self._logged = logged
        self._none_starts = none_starts
        self._records: Optional[List[FaultRecord]] = None

    @property
    def records(self) -> List[FaultRecord]:
        """One :class:`FaultRecord` per access, in trace order."""
        if self._records is None:
            none = FaultKind.NONE
            rows = iter(self._log.records[self._first_row :])
            starts = iter(self._none_starts)
            self._records = [
                next(rows)
                if logged
                else FaultRecord(none, page, next(starts), 0.0)
                for page, logged in zip(self._trace.pages, self._logged)
            ]
        return self._records

    @property
    def elapsed_us(self) -> float:
        return self.finished_us - self.started_us

    @property
    def fault_count(self) -> int:
        return self._logged.count(1)


class VCpu:
    """Executes guest access traces against a host fault handler.

    With ``batch_faults`` (the default) runs of accesses that cannot
    block — EPT hits, and every fault the handler's classifier resolves
    without a blocking leg — are handed to the handler's run loop
    (:meth:`~repro.host.fault.FaultHandler.fast_access`), serviced
    synchronously on a virtual clock, and the whole run sleeps once
    via :meth:`~repro.sim.Environment.wake_at`, instead of dispatching
    heap events per page. Both paths price faults with the one
    classifier, so every fault-log row and the final clock are
    bit-identical to the per-event path; only waits on in-flight
    reads, contended device reads and blocking userfaultfd handlers
    drop back to the event path. Without ``batch_faults`` every access
    takes the event path: the reference the batched path is held to.
    """

    def __init__(
        self,
        env: Environment,
        handler: FaultHandler,
        cpu: Optional[Resource] = None,
        batch_faults: bool = True,
    ):
        self.env = env
        self.handler = handler
        self.cpu = cpu
        self.batch_faults = batch_faults

    def _count_paths(self, total: int, slow: int) -> None:
        """Attribute this run's accesses to the fast vs event path in
        the host's telemetry bundle (one batched update at trace end;
        the access loop itself stays instrument-free)."""
        telemetry = getattr(self.handler.cache, "telemetry", None)
        if telemetry is None or total == 0:
            return
        fast = total - slow
        telemetry.vcpu_fast.value += fast
        telemetry.vcpu_slow.value += slow
        if fast:
            telemetry.profiler.add("vcpu.fast_path", 0.0, fast)
        if slow:
            telemetry.profiler.add("vcpu.event_path", 0.0, slow)

    def run_trace(
        self,
        trace: Union[TraceColumns, Sequence[GuestAccess]],
        tail_think_us: float = 0.0,
    ) -> Generator[Event, Any, VCpuResult]:
        """Process helper: execute ``trace`` then ``tail_think_us`` of
        final compute (e.g. serialising the response). A plain sequence
        of accesses gets its :class:`TraceColumns` built here
        (:meth:`TraceColumns.of`).

        ``vnow`` is the vCPU's virtual clock: it runs ahead of
        ``env.now`` while the handler's run loop
        (:meth:`~repro.host.fault.FaultHandler.fast_access`) serves
        accesses synchronously, and a single ``wake_at(vnow)`` flush
        realises the accumulated time whenever the trace hits an
        event-path access (or ends). So the trace runs as: a run, at
        most one event-path access, a run again. Think time folds into
        the run when no host CPU slot is modelled; with a CPU resource
        it must contend, so it flushes first and each run is one
        access.
        """
        if not isinstance(trace, TraceColumns):
            trace = TraceColumns.of(trace)
        env = self.env
        handler = self.handler
        log = handler.stats
        started = env.now
        first_row = len(log)
        logged = bytearray()
        none_starts: List[float] = []
        vnow = started
        fast_access = handler.fast_access
        batch = self.batch_faults
        fold_think = batch and self.cpu is None
        pages = trace.pages
        writes = trace.writes
        values = trace.values
        thinks = trace.thinks
        slow = 0
        index = 0
        count = len(thinks)
        while index < count:
            think = thinks[index]
            if think > 0:
                if fold_think:
                    vnow += think
                else:
                    if vnow > env.now:
                        yield env.wake_at(vnow)
                    yield from self._compute(think)
                    vnow = env.now
            if batch:
                stop = count if fold_think else index + 1
                while True:
                    index, vnow, retry = fast_access(
                        trace, index, stop, vnow, logged, none_starts
                    )
                    if not (retry and vnow > env.now):
                        break
                    # Another event fires before this fault's read or
                    # handler would end: flush so it runs, then retry.
                    yield env.wake_at(vnow)
                if index == stop:
                    continue
            # The event path, with this access's think time in ``vnow``.
            if vnow > env.now:
                yield env.wake_at(vnow)
            record = yield from handler.access(
                pages[index], write=writes[index], value=values[index]
            )
            vnow = env.now
            slow += 1
            if record.kind is FaultKind.NONE:
                logged.append(0)
                none_starts.append(record.start_us)
            else:
                logged.append(1)
            index += 1
        if tail_think_us > 0:
            if fold_think:
                vnow += tail_think_us
            else:
                if vnow > env.now:
                    yield env.wake_at(vnow)
                yield from self._compute(tail_think_us)
                vnow = env.now
        if vnow > env.now:
            yield env.wake_at(vnow)
        self._count_paths(len(logged), slow)
        return VCpuResult(
            started, env.now, trace, log, first_row, logged, none_starts
        )

    def _compute(self, think_us: float) -> Generator[Event, Any, None]:
        """Burn CPU time, holding a host CPU slot if one is modelled."""
        if self.cpu is None:
            yield self.env.timeout(think_us)
            return
        # Yield inside the try: an interrupt while queueing for the
        # slot must withdraw the request (release handles both the
        # granted and still-waiting cases).
        request = self.cpu.request()
        try:
            yield request
            yield self.env.timeout(think_us)
        finally:
            self.cpu.release(request)
