"""The vCPU: replays a guest access trace through the fault handler.

A trace is a list of :class:`GuestAccess` items, each "compute for
``think_us``, then touch ``page``". Traces contain only *first
touches* plus the compute time between them — repeated accesses to an
already-mapped page cost nothing at the host, so folding them into
think time loses no fidelity while keeping the simulation fast.

When a host CPU :class:`~repro.sim.Resource` is supplied, think time
runs while holding a CPU slot; fault waits release it. With more
runnable vCPUs than slots, invocations slow down and their variance
grows — the paper's observation at 64-way parallelism (§6.6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, List, Optional, Sequence

from repro.host.fault import (
    HORIZON_BLOCKED,
    FaultHandler,
    FaultKind,
    FaultRecord,
    FaultStats,
)
from repro.sim import Environment, Event, Resource

INFINITY = float("inf")


class ObservationHorizon:
    """The next simulated instant at which a concurrent observer (the
    mincore recorder) will read state the fault fast path mutates
    eagerly (the installed-PTE count). The batching vCPU never lets an
    install whose per-event completion would land at or past this
    instant happen early — it flushes, lets the observer catch up, and
    retries — so observers see bit-identical state either way."""

    __slots__ = ("next_at",)

    def __init__(self, next_at: float = float("inf")):
        self.next_at = next_at


@dataclass(frozen=True, slots=True)
class GuestAccess:
    """One step of guest execution: compute, then touch a page."""

    page: int
    write: bool = False
    #: Content token stored when ``write`` (ignored for reads).
    value: Optional[int] = None
    #: Compute time preceding the access, microseconds.
    think_us: float = 0.0


class VCpuResult:
    """Outcome of running one trace.

    The faults live in the handler's log (rows ``first_row`` onward);
    ``logged`` holds one byte per access of ``trace``, 1 when the
    access logged a row, and ``none_starts`` the start instants of the
    accesses that did not (reads of EPT-mapped pages and plain stores,
    which the batched loop handles without allocating anything).
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
        trace: Sequence[GuestAccess],
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
                else FaultRecord(none, access.page, next(starts), 0.0)
                for access, logged in zip(self._trace, self._logged)
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
    without a blocking leg — are serviced synchronously on a virtual
    clock and the whole run sleeps once via
    :meth:`~repro.sim.Environment.wake_at`, instead of dispatching
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
        #: Set when a concurrent observer (mincore recorder) watches
        #: this VM's resident-set size; bounds how far ahead of the
        #: real clock the fast path may install PTEs.
        self.observer_horizon: Optional[ObservationHorizon] = None

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
        self, trace: List[GuestAccess], tail_think_us: float = 0.0
    ) -> Generator[Event, Any, VCpuResult]:
        """Process helper: execute ``trace`` then ``tail_think_us`` of
        final compute (e.g. serialising the response).

        ``vnow`` is the vCPU's virtual clock: it runs ahead of
        ``env.now`` while accesses are serviced synchronously, and a
        single ``wake_at(vnow)`` flush realises the accumulated time
        whenever the trace hits an event-path access (or ends). Think
        time folds into the batch when no host CPU slot is modelled;
        with a CPU resource it must contend, so it flushes first.
        """
        env = self.env
        handler = self.handler
        space = handler.space
        log = handler.stats
        started = env.now
        first_row = len(log)
        logged = bytearray()
        none_starts: List[float] = []
        vnow = started
        horizon = self.observer_horizon
        fast_access = handler.fast_access
        mapped_write = handler.mapped_write
        mark = logged.append
        none_start = none_starts.append
        batch = self.batch_faults
        fold_think = batch and self.cpu is None
        slow = 0
        # Mutated only in place, so the binding outlives any yield. (The
        # image is read through the space: a remap replaces it.)
        ept = space.ept
        for access in trace:
            if access.think_us > 0:
                if fold_think:
                    vnow += access.think_us
                else:
                    if vnow > env.now:
                        yield env.wake_at(vnow)
                    yield from self._compute(access.think_us)
                    vnow = env.now
            page = access.page
            end = None
            if batch:
                if page in ept or page in space.image:
                    # A mapped page: a read is no fault and no cost; a
                    # store faults only to break copy-on-write.
                    if access.write:
                        end = mapped_write(page, access.value, vnow)
                        if end is not None:
                            vnow = end
                            mark(1)
                            continue
                    mark(0)
                    none_start(vnow)
                    continue
                while True:
                    end = fast_access(
                        page,
                        access.write,
                        access.value,
                        vnow,
                        horizon.next_at if horizon is not None else INFINITY,
                    )
                    if end is HORIZON_BLOCKED and vnow > env.now:
                        # An eager install would land at or past the
                        # next observer read. Flush so the observer
                        # catches up (moving its horizon forward), then
                        # retry.
                        yield env.wake_at(vnow)
                        continue
                    break
            if end is None or end is HORIZON_BLOCKED:
                if vnow > env.now:
                    yield env.wake_at(vnow)
                record = yield from handler.access(
                    page, write=access.write, value=access.value
                )
                vnow = env.now
                slow += 1
                if record.kind is FaultKind.NONE:
                    mark(0)
                    none_start(record.start_us)
                else:
                    mark(1)
            else:
                # fast_access logged the fault.
                vnow = end
                mark(1)
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
