"""The host page-fault handler.

Every guest memory access funnels through :meth:`FaultHandler.access`.
Guest memory is mapped at two levels, as on real KVM hosts:

* the **host PTE** (``AddressSpace.pte``) — the VMM process's mapping
  of the page, installed by fault handling or by ``UFFDIO_COPY``;
* the **EPT entry** (``AddressSpace.ept``) — the guest-physical
  mapping KVM establishes the first time the vCPU touches the page.

An access classifies exactly as the paper's Section 3 measures:

==========  ========================================================
Kind        Meaning and cost
==========  ========================================================
NONE        EPT entry exists — no fault, no cost.
PRESENT     Host PTE exists but no EPT entry (e.g. installed by
            UFFDIO_COPY): only the fast KVM fixup (<4 us; REAP's
            in-working-set faults).
ANON        Anonymous zero-fill fault (~2.5 us): warm-VM pages and
            FaaSnap's zero regions (§4.5).
MINOR       File page already resident in the host page cache
            (~3.7 us), or a sparse-file hole (zeros, no I/O).
MAJOR       File page not resident: blocks on disk I/O, with
            readahead. If another thread (FaaSnap loader, readahead,
            another VM) already has an in-flight read for the page
            the fault waits on it instead of issuing a duplicate
            request — cheaper, and charged no block I/O of its own
            (§6.5).
UFFD        Delegated to a userfaultfd handler (REAP).
COW         First write to a clean file-backed page: the private
            copy-on-write break (guest memory is MAP_PRIVATE).
==========  ========================================================

Each handled fault appends one row to the VM's fault log
(:class:`FaultStats`), a set of typed columns: kind code, page, start
and duration, plus block requests and bytes read for the kinds that
do I/O. The fast path appends to the columns without allocating an
object per fault; :class:`FaultRecord` is the row view, built when
someone reads the log. The paper's histograms (Fig. 2), fault counts
and times (Fig. 9), and waiting-time breakdowns (Table 3) are
computed from the log.
"""

from __future__ import annotations

import enum
import operator
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import reduce
from itertools import compress
from typing import Any, Generator, Iterator, List, Optional, Sequence, Tuple

from repro.host.page_cache import PageCache
from repro.host.params import HostParams
from repro.host.readahead import ReadaheadPolicy
from repro.host.uffd import UserfaultfdManager
from repro.host.vma import ANONYMOUS, AddressSpace, FileBacking, Vma
from repro.sim import Environment, Event, SimulationError
from repro.storage.filestore import PAGE_SIZE


#: Sentinel returned by :meth:`FaultHandler.fast_access` when servicing
#: the access eagerly would install a PTE at or past the observer
#: horizon (see :class:`repro.vm.vcpu.ObservationHorizon`).
HORIZON_BLOCKED = object()


class SyncReadPlan:
    """A fault-time readahead read computed synchronously but not yet
    applied: the window, the per-request timings, and the device
    sequential-detector cursor as it would stand after the read. Split
    from the commit so a caller can still bail (observer horizon,
    pending heap event) without having mutated anything."""

    __slots__ = (
        "readahead",
        "file",
        "pages",
        "window_size",
        "reads",
        "end",
        "bytes_total",
        "seq_cursor",
    )

    def __init__(self, readahead, file, pages, window_size, reads, end,
                 bytes_total, seq_cursor):
        self.readahead = readahead
        self.file = file
        self.pages = pages
        self.window_size = window_size
        self.reads = reads
        self.end = end
        self.bytes_total = bytes_total
        self.seq_cursor = seq_cursor


def plan_uncontended_read(
    readahead: ReadaheadPolicy,
    file,
    cache: PageCache,
    fault_page: int,
    start: float,
) -> Optional["SyncReadPlan"]:
    """Plan a fault's readahead read for synchronous servicing.

    Returns ``None`` when the device would queue the request (a slot or
    the bandwidth channel is busy) — then the event-driven path must
    run. Otherwise replicates, addition for addition, the float
    arithmetic of :meth:`repro.storage.device.BlockDevice.read` for
    each data run of the window, so committing the plan lands on a
    bit-identical completion instant.
    """
    device = file.device
    if not device.can_read_immediately():
        return None
    pages, window_size = readahead.plan(file, cache, fault_page)
    spec = device.spec
    seq_cursor = device._next_sequential_offset
    end = start
    reads = []
    bytes_total = 0
    for run_start, run_len in file.data_runs(pages[0], len(pages)):
        offset = file.device_offset(run_start)
        nbytes = run_len * PAGE_SIZE
        sequential = offset == seq_cursor
        seq_cursor = offset + nbytes
        latency = (
            spec.sequential_latency_us
            if sequential
            else spec.random_latency_us
        )
        latency = max(latency, spec.min_request_interval_us)
        run_begin = end
        end = end + latency
        end = end + nbytes / spec.bandwidth_bytes_per_us
        reads.append((nbytes, sequential, end - run_begin))
        bytes_total += nbytes
    return SyncReadPlan(
        readahead, file, pages, window_size, reads, end, bytes_total, seq_cursor
    )


def commit_uncontended_read(cache: PageCache, plan: "SyncReadPlan") -> None:
    """Apply a :class:`SyncReadPlan`: stream state, device statistics,
    sequential-detector cursor, and cache residency — the same
    mutations, in the same order, the event-driven read performs."""
    file = plan.file
    plan.readahead.commit(file.name, plan.pages[0], plan.pages, plan.window_size)
    stats = file.device.stats
    for nbytes, sequential, elapsed in plan.reads:
        stats.requests += 1
        if sequential:
            stats.sequential_requests += 1
        stats.bytes_read += nbytes
        stats.per_request_sizes.append(nbytes)
        stats.busy_time_us += elapsed
    file.device._next_sequential_offset = plan.seq_cursor
    cache.insert_range(file.name, plan.pages[0], len(plan.pages))


class FaultKind(enum.Enum):
    """Classification of a guest memory access at the host."""

    NONE = "none"
    PRESENT = "present"
    ANON = "anon"
    MINOR = "minor"
    MAJOR = "major"
    UFFD = "uffd"
    COW = "cow"


#: Kinds that represent an actual page fault (NONE is a plain access).
FAULTING_KINDS = frozenset(
    {
        FaultKind.PRESENT,
        FaultKind.ANON,
        FaultKind.MINOR,
        FaultKind.MAJOR,
        FaultKind.UFFD,
        FaultKind.COW,
    }
)


@dataclass(slots=True)
class FaultRecord:
    """One handled fault on the simulated timeline: a row of a
    :class:`FaultStats` log, built when someone reads it."""

    kind: FaultKind
    page: int
    start_us: float
    duration_us: float
    #: Device read requests this fault issued itself.
    block_requests: int = 0
    bytes_read: int = 0


#: Every kind, indexed by its code in a fault log's ``kinds`` column.
KINDS: Tuple[FaultKind, ...] = tuple(FaultKind)
KIND_CODE = {kind: code for code, kind in enumerate(KINDS)}
NONE_CODE = KIND_CODE[FaultKind.NONE]
PRESENT_CODE = KIND_CODE[FaultKind.PRESENT]
ANON_CODE = KIND_CODE[FaultKind.ANON]
MINOR_CODE = KIND_CODE[FaultKind.MINOR]
MAJOR_CODE = KIND_CODE[FaultKind.MAJOR]
UFFD_CODE = KIND_CODE[FaultKind.UFFD]
COW_CODE = KIND_CODE[FaultKind.COW]
#: Kinds whose rows carry I/O columns (block requests, bytes read).
IO_CODES = frozenset({MAJOR_CODE, UFFD_CODE})
#: ``bytes.translate`` tables: code ``c`` -> 1, every other byte -> 0.
_KIND_MASKS = tuple(
    bytes(1 if b == code else 0 for b in range(256))
    for code in range(len(KINDS))
)
_IO_MASK = bytes(1 if b in IO_CODES else 0 for b in range(256))


class FaultStats:
    """One VM's fault log, stored as typed columns.

    Row ``i`` is one handled fault: ``kinds[i]`` (a code into
    :data:`KINDS`), ``pages[i]``, ``start_us[i]`` and
    ``duration_us[i]``. A NONE access is no fault and has no row.
    Block requests and bytes read are kept only for the rows that can
    do I/O (:data:`IO_CODES`: MAJOR and UFFD), in row order, in
    ``io_requests`` / ``io_bytes``. The fault fast path appends to the
    columns directly; :attr:`records` builds the :class:`FaultRecord`
    view on demand.
    """

    __slots__ = (
        "kinds",
        "pages",
        "start_us",
        "duration_us",
        "io_requests",
        "io_bytes",
    )

    def __init__(self) -> None:
        self.kinds = bytearray()
        self.pages = array("q")
        self.start_us = array("d")
        self.duration_us = array("d")
        self.io_requests = array("q")
        self.io_bytes = array("q")

    def __len__(self) -> int:
        return len(self.kinds)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultStats):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name)
            for name in self.__slots__
        )

    __hash__ = None  # type: ignore[assignment]

    def add(self, record: FaultRecord) -> None:
        """Append one record (the event path)."""
        code = KIND_CODE[record.kind]
        if code == NONE_CODE:
            raise ValueError("a NONE access is no fault and has no row")
        if code in IO_CODES:
            self.log_io(
                code,
                record.page,
                record.start_us,
                record.duration_us,
                record.block_requests,
                record.bytes_read,
            )
        else:
            self.log(code, record.page, record.start_us, record.duration_us)

    def log(
        self, code: int, page: int, start_us: float, duration_us: float
    ) -> None:
        """Append one row of a kind that does no I/O."""
        self.kinds.append(code)
        self.pages.append(page)
        self.start_us.append(start_us)
        self.duration_us.append(duration_us)

    def log_io(
        self,
        code: int,
        page: int,
        start_us: float,
        duration_us: float,
        block_requests: int,
        bytes_read: int,
    ) -> None:
        """Append one row of an :data:`IO_CODES` kind."""
        self.log(code, page, start_us, duration_us)
        self.io_requests.append(block_requests)
        self.io_bytes.append(bytes_read)

    @property
    def records(self) -> List[FaultRecord]:
        """The log as :class:`FaultRecord` objects, in row order."""
        io = zip(self.io_requests, self.io_bytes)
        records = []
        append = records.append
        for code, page, start, duration in zip(
            self.kinds, self.pages, self.start_us, self.duration_us
        ):
            kind = KINDS[code]
            if code in IO_CODES:
                append(FaultRecord(kind, page, start, duration, *next(io)))
            else:
                append(FaultRecord(kind, page, start, duration))
        return records

    def _of_kind(self, column: Sequence[Any], code: int) -> Iterator[Any]:
        """The entries of a row column for the rows of kind ``code``."""
        return compress(column, self.kinds.translate(_KIND_MASKS[code]))

    def kind_totals(self) -> List[Tuple[int, int, float]]:
        """``(code, rows, total duration)`` for each kind in the log, in
        the order the kinds first appear; each total sums its rows'
        durations in row order."""
        kinds = self.kinds
        present = [code for code in range(len(KINDS)) if code in kinds]
        present.sort(key=kinds.index)
        return [
            (
                code,
                kinds.count(code),
                reduce(operator.add, self._of_kind(self.duration_us, code)),
            )
            for code in present
        ]

    def block_requests(self, kind: FaultKind) -> List[int]:
        """Block requests of each row of ``kind`` (one of the
        :data:`IO_CODES` kinds), in row order."""
        io_kinds = bytes(compress(self.kinds, self.kinds.translate(_IO_MASK)))
        mask = io_kinds.translate(_KIND_MASKS[KIND_CODE[kind]])
        return list(compress(self.io_requests, mask))

    def count(self, kind: Optional[FaultKind] = None) -> int:
        if kind is None:
            return len(self.kinds)
        return self.kinds.count(KIND_CODE[kind])

    def total_time_us(self, kind: Optional[FaultKind] = None) -> float:
        if kind is None:
            return sum(self.duration_us)
        return sum(self._of_kind(self.duration_us, KIND_CODE[kind]))

    def total_block_requests(self) -> int:
        return sum(self.io_requests)

    def total_bytes_read(self) -> int:
        return sum(self.io_bytes)

    def durations(self, kind: Optional[FaultKind] = None) -> List[float]:
        if kind is None:
            return self.duration_us.tolist()
        return list(self._of_kind(self.duration_us, KIND_CODE[kind]))


class FaultHandler:
    """Per-VM host fault handler bound to a shared page cache."""

    def __init__(
        self,
        env: Environment,
        params: HostParams,
        cache: PageCache,
        space: AddressSpace,
        uffd: Optional[UserfaultfdManager] = None,
        label: str = "vm",
    ):
        self.env = env
        self.params = params
        self.cache = cache
        self.space = space
        self.uffd = uffd
        self.label = label
        self.readahead = ReadaheadPolicy(params)
        self.stats = FaultStats()
        #: Last VMA the fast path resolved, valid while the space's
        #: mapping ``version`` is unchanged — consecutive accesses
        #: overwhelmingly hit the same region.
        self._vma_cache: Optional[Vma] = None
        self._vma_version = -1
        #: Device whose I/O counters are attributed to userfaultfd
        #: faults (set when a uffd handler reads from disk on the
        #: VM's behalf, e.g. REAP's out-of-working-set path).
        self.io_device = None

    def _cost(self, base_us: float, page: int, salt: int) -> float:
        """Service cost with deterministic per-(page, kind) jitter.

        Real fault costs vary with cache and TLB state; scaling by a
        hash of the page keeps runs reproducible while spreading the
        handling-time distribution (Figure 2) realistically.
        """
        jitter = self.params.fault_jitter_fraction
        if jitter <= 0:
            return base_us
        bucket = ((page * 2_654_435_761 + salt * 40_503) >> 7) % 1024
        factor = 1.0 + jitter * (2.0 * bucket / 1024.0 - 1.0)
        return base_us * factor

    def access(
        self, page: int, write: bool = False, value: Optional[int] = None
    ) -> Generator[Event, Any, FaultRecord]:
        """Process helper: one guest access to ``page``.

        ``write=True`` with ``value`` models the guest storing new
        content. Returns the :class:`FaultRecord` (kind ``NONE`` for a
        faultless access). Usage::

            record = yield from handler.access(page, write=True, value=v)
        """
        start = self.env.now
        space = self.space

        if page in space.ept or page in space.image:
            if not (write and self._store_mapped(page, value)):
                return FaultRecord(FaultKind.NONE, page, start, 0.0)
            cow_us = self.params.anon_fault_us + self.params.cow_copy_us
            if cow_us > 0:
                yield self.env.timeout(cow_us)
            record = FaultRecord(
                FaultKind.COW, page, start, self.env.now - start
            )
            self.stats.add(record)
            return record

        if space.is_installed(page):
            # Host PTE exists (UFFDIO_COPY or a previous mapping):
            # only the KVM EPT fixup remains.
            yield self.env.timeout(self._cost(self.params.present_fault_us, page, 1))
            space.ept.add(page)
            record = FaultRecord(
                FaultKind.PRESENT, page, start, self.env.now - start
            )
            self._apply_write(page, write, value)
            self.stats.add(record)
            return record

        registration = self.uffd.lookup(page) if self.uffd else None
        if registration is not None:
            before_requests, before_bytes = self._device_counters()
            content = yield from self.uffd.handle_fault(registration, page)
            after_requests, after_bytes = self._device_counters()
            space.install_pte(page, content)
            space.ept.add(page)
            self._apply_write(page, write, value)
            record = FaultRecord(
                FaultKind.UFFD,
                page,
                start,
                self.env.now - start,
                after_requests - before_requests,
                after_bytes - before_bytes,
            )
            self.stats.add(record)
            return record

        vma = space.resolve(page)
        if vma is None:
            raise SimulationError(
                f"{self.label}: access to unmapped page {page} (SIGSEGV)"
            )

        if vma.backing is ANONYMOUS:
            yield self.env.timeout(self._cost(self.params.anon_fault_us, page, 2))
            space.install_pte(page, space.anon_contents.get(page, 0))
            space.ept.add(page)
            self._apply_write(page, write, value)
            record = FaultRecord(FaultKind.ANON, page, start, self.env.now - start)
            self.stats.add(record)
            return record

        assert isinstance(vma.backing, FileBacking)
        file = vma.backing.file
        file_page = vma.file_page(page)

        if file.is_hole(file_page) or self.cache.contains(file.name, file_page):
            # Resident page or sparse hole: minor fault, no I/O.
            yield self.env.timeout(self._cost(self.params.minor_fault_us, page, 3))
            kind = FaultKind.MINOR
            requests = bytes_read = 0
        else:
            pending = self.cache.pending_event(file.name, file_page)
            if pending is not None:
                # Another thread is already reading this page: wait on
                # its completion, then install — a major fault with no
                # block I/O of its own.
                yield pending
                yield self.env.timeout(
                    self.params.minor_fault_us
                    + self.params.vcpu_block_overhead_us
                )
                kind = FaultKind.MAJOR
                requests = bytes_read = 0
            else:
                device = file.device
                before_requests = device.stats.requests
                before_bytes = device.stats.bytes_read
                yield self.env.timeout(self.params.major_fault_overhead_us)
                yield from self.readahead.fault_read(file, self.cache, file_page)
                # The vCPU blocked on the read; waking it costs extra
                # (kvm_vcpu_block, Table 3).
                yield self.env.timeout(self.params.vcpu_block_overhead_us)
                kind = FaultKind.MAJOR
                requests = device.stats.requests - before_requests
                bytes_read = device.stats.bytes_read - before_bytes

        if write:
            # MAP_PRIVATE write fault: the private copy happens inside
            # the same fault.
            yield self.env.timeout(self.params.cow_copy_us)
        space.install_pte(page, file.page_value(file_page))
        space.ept.add(page)
        self._apply_write(page, write, value)
        record = FaultRecord(
            kind, page, start, self.env.now - start, requests, bytes_read
        )
        self.stats.add(record)
        return record

    def fast_access(
        self,
        page: int,
        write: bool,
        value: Optional[int],
        vnow: float,
        horizon: float = float("inf"),
    ) -> Any:
        """Service one access synchronously if it cannot block.

        This is the batching fast path (the paper's §3 observation
        that anonymous ≈2.5 µs, minor ≈3.7 µs and EPT-fixup faults
        have deterministic service times makes aggregation exact):
        accesses whose outcome and cost depend only on state this VM
        itself mutates — installed-PTE fixups, anonymous zero-fills,
        sparse-file holes, and page-cache minor faults on an unbounded
        cache — are handled without touching the event heap. ``vnow``
        is the caller's virtual clock. ``page`` must not be mapped in
        EPT or the image: the caller handles mapped pages itself (a
        read is no fault; a store goes through :meth:`mapped_write`).
        A serviced access appends its fault to the log as a row,
        allocating no :class:`FaultRecord`, and returns its end instant,
        computed with exactly the float arithmetic the per-event path
        would have produced, so a later :meth:`Environment.wake_at`
        flush lands the real clock on a bit-identical instant.

        Major faults are also serviced synchronously when the device
        is idle and no other simulation event fires before the fault
        would complete (checked against the event heap), which covers
        the common cold-start stream of one uncontended readahead
        window per fault.

        Returns ``None`` when the access must take the event-driven
        slow path: userfaultfd-delegated pages, waits on in-flight
        reads, contended major faults, and faults against a
        capacity-bounded cache (whose LRU/eviction behaviour is
        order-sensitive).

        ``horizon`` is the next instant a concurrent observer reads
        the installed-PTE count (the mincore recorder's RSS poll).
        Returns :data:`HORIZON_BLOCKED` instead of installing when the
        per-event completion instant would land at or past it — the
        caller must flush and retry, so the observer never sees an
        install earlier than the per-event path would have made it.
        """
        space = self.space
        params = self.params

        if page in space.pte:
            end = vnow + self._cost(params.present_fault_us, page, 1)
            if end >= horizon:
                return HORIZON_BLOCKED
            space.ept.add(page)
            if write:
                space.write_anon(page, self._required_value(value))
            self.stats.log(PRESENT_CODE, page, vnow, end - vnow)
            return end

        if self.uffd is not None:
            registration = self.uffd.lookup(page)
            if registration is not None:
                return self._fast_uffd(
                    registration, page, write, value, vnow, horizon
                )

        # One-entry VMA cache: consecutive accesses overwhelmingly hit
        # the same region, making the bisect in resolve() the
        # exception rather than the rule.
        vma = self._vma_cache
        if (
            vma is None
            or self._vma_version != space.version
            or not (vma.start <= page < vma.start + vma.npages)
        ):
            vma = space.resolve(page)
            if vma is None:
                raise SimulationError(
                    f"{self.label}: access to unmapped page {page} (SIGSEGV)"
                )
            self._vma_cache = vma
            self._vma_version = space.version

        if vma.backing is ANONYMOUS:
            end = vnow + self._cost(params.anon_fault_us, page, 2)
            if end >= horizon:
                return HORIZON_BLOCKED
            space.pte[page] = space.anon_contents.get(page, 0)
            space.ept.add(page)
            if write:
                space.write_anon(page, self._required_value(value))
            self.stats.log(ANON_CODE, page, vnow, end - vnow)
            return end

        backing = vma.backing
        file = backing.file
        file_page = backing.file_start_page + (page - vma.start)

        # Inlined StoredFile.is_hole / page_value and the unbounded
        # page-cache residency probe: this branch runs once per minor
        # fault and the attribute/range-check overhead of the general
        # accessors is measurable at that rate.
        content = file.pages.get(file_page, 0)
        cache = self.cache
        if cache.capacity_pages is None:
            runs = cache._runs.get(file.name)
            if runs is not None:
                index = bisect_right(runs.starts, file_page) - 1
                resident = index >= 0 and file_page < runs.ends[index]
            else:
                resident = False
        else:
            resident = False
        if (file.sparse and content == 0) or resident:
            end = vnow + self._cost(params.minor_fault_us, page, 3)
            if write:
                end = end + params.cow_copy_us
            if end >= horizon:
                return HORIZON_BLOCKED
            space.pte[page] = content
            space.ept.add(page)
            if write:
                space.write_anon(page, self._required_value(value))
            self.stats.log(MINOR_CODE, page, vnow, end - vnow)
            return end

        # MAJOR fault. Its service time is computable synchronously
        # when (a) the device would grant a queue slot and the
        # bandwidth channel immediately, and (b) no event anywhere in
        # the simulation fires at or before the fault's completion —
        # then no other process can contend for the device, mutate the
        # page cache, or observe the eagerly-applied state any earlier
        # than the per-event path would have produced it.
        if self.cache.capacity_pages is not None:
            return None
        if self.cache.has_pending(file.name, file_page):
            # Wait on the in-flight read: inherently event-driven.
            return None
        plan = plan_uncontended_read(
            self.readahead,
            file,
            self.cache,
            file_page,
            vnow + params.major_fault_overhead_us,
        )
        if plan is None:
            return None
        end = plan.end + params.vcpu_block_overhead_us
        if write:
            end = end + params.cow_copy_us
        if end >= horizon or self.env.peek() <= end:
            # Something else runs before this fault would finish (or
            # the observer would see it): flush and retry, or fall to
            # the slow path.
            return HORIZON_BLOCKED
        commit_uncontended_read(self.cache, plan)
        space.install_pte(page, file.page_value(file_page))
        space.ept.add(page)
        self._apply_write(page, write, value)
        self.stats.log_io(
            MAJOR_CODE,
            page,
            vnow,
            end - vnow,
            len(plan.reads),
            plan.bytes_total,
        )
        return end

    def _fast_uffd(
        self,
        registration,
        page: int,
        write: bool,
        value: Optional[int],
        vnow: float,
        horizon: float,
    ) -> Any:
        """Synchronous twin of the userfaultfd delegation protocol.

        The wake-up, UFFDIO_COPY and resume-stall legs are fixed
        costs; the handler's own work is delegated to the
        registration's ``fast_handler`` (when it provides one), which
        prices the fault on a virtual clock without mutating anything.
        The same strict heap/horizon gate as the major-fault fast path
        then guarantees no other process could have interleaved, so
        committing eagerly is indistinguishable from the event path.
        """
        fast_handler = registration.fast_handler
        if fast_handler is None:
            return None
        params = self.params
        t = vnow + params.uffd_wakeup_us
        outcome = fast_handler(page, t)
        if outcome is None:
            return None
        content, t, read_plan = outcome
        t = t + params.uffd_copy_us
        end = t + (
            params.uffd_resume_stall_us + params.vcpu_block_overhead_us
        )
        if end >= horizon or self.env.peek() <= end:
            return HORIZON_BLOCKED
        self.uffd.delegated_faults += 1
        requests = bytes_read = 0
        if read_plan is not None:
            commit_uncontended_read(self.cache, read_plan)
            if self.io_device is read_plan.file.device:
                requests = len(read_plan.reads)
                bytes_read = read_plan.bytes_total
        space = self.space
        space.install_pte(page, content)
        space.ept.add(page)
        self._apply_write(page, write, value)
        self.stats.log_io(
            UFFD_CODE, page, vnow, end - vnow, requests, bytes_read
        )
        return end

    def mapped_write(
        self, page: int, value: Optional[int], vnow: float
    ) -> Optional[float]:
        """Store to a page the guest already has mapped in EPT, on the
        caller's virtual clock ``vnow``. A first store to a clean
        MAP_PRIVATE file page is a copy-on-write break: it is logged,
        and its end instant returned. Any other store is no fault and
        returns ``None``."""
        if not self._store_mapped(page, value):
            return None
        params = self.params
        end = vnow + (params.anon_fault_us + params.cow_copy_us)
        self.stats.log(COW_CODE, page, vnow, end - vnow)
        return end

    def _store_mapped(self, page: int, value: Optional[int]) -> bool:
        """Apply a store to an EPT-mapped page; True when it is the
        first store to a clean MAP_PRIVATE file page (a CoW break)."""
        space = self.space
        cow = False
        if page not in space.anon_contents and page not in space.image:
            vma = space.resolve(page)
            cow = vma is not None and isinstance(vma.backing, FileBacking)
        space.write_anon(page, self._required_value(value))
        return cow

    def _device_counters(self):
        if self.io_device is None:
            return (0, 0)
        return (self.io_device.stats.requests, self.io_device.stats.bytes_read)

    def _apply_write(self, page: int, write: bool, value: Optional[int]) -> None:
        if write:
            self.space.write_anon(page, self._required_value(value))

    @staticmethod
    def _required_value(value: Optional[int]) -> int:
        if value is None:
            raise SimulationError("write access requires a value")
        return value

    def observed_value(self, page: int) -> int:
        """Content the guest observes at ``page`` right now (for
        memory-integrity assertions in tests)."""
        return self.space.backing_value(page)
