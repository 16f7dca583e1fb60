"""The host page-fault handler.

Every guest memory access funnels through one classifier,
:meth:`FaultHandler.classify`. Guest memory is mapped at two levels,
as on real KVM hosts:

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
UFFD        Delegated to a userfaultfd handler (REAP): wake-up, the
            handler's work, UFFDIO_COPY and the vCPU resume stall.
COW         First write to a clean file-backed page: the private
            copy-on-write break (guest memory is MAP_PRIVATE).
==========  ========================================================

Given a page, a write flag and an instant, the classifier either
*resolves* the fault — its kind, the instants its cost legs end, the
content to install and its own readahead read, priced on an idle
device — or returns the one *leg that must block* on the event heap: a
wait on another reader's in-flight read, a device read that would
queue (busy or degraded device), or a userfaultfd handler that cannot
answer at once. Two callers share it:

* :meth:`FaultHandler.fast_access`, the batched path, is a run loop
  over a stretch of the vCPU's trace: on the vCPU's virtual clock it
  folds think time, answers mapped-page accesses inline, classifies
  each fault and commits a resolution at once, inline — for a fault
  that reads or delegates, when it ends before the next heap event, so
  no other process could have seen the difference. On a warm VM it
  serves each stretch of image pages between the pages outside the
  image at once. It stops at the first access that cannot be served
  so, or that must let a heap event run first;
* :meth:`FaultHandler.access`, the event path, classifies at
  ``env.now``, sleeps to each leg's end and commits, or runs the
  blocking leg first. It prices reads and handlers at the instant they
  really start, as nothing stops other processes running meanwhile.

Each handled fault appends one row to the VM's fault log
(:class:`FaultStats`), a set of typed columns: kind code, page, start
and duration, plus the block requests and bytes of the fault's own
reads for the kinds that do I/O. :class:`FaultRecord` is the row
view, built when someone reads the log. The fixed costs (EPT fixup,
anonymous, minor) come from per-kind tables indexed by a page-hash
jitter bucket, built once per handler. The paper's histograms
(Fig. 2), fault counts and times (Fig. 9), and waiting-time
breakdowns (Table 3) are computed from the log.
"""

from __future__ import annotations

import enum
import operator
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, compress
from typing import (
    TYPE_CHECKING,
    Any,
    Generator,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.host.page_cache import PageCache
from repro.host.params import HostParams
from repro.host.readahead import ReadaheadPolicy, WindowRead
from repro.host.uffd import UffdRegistration, UserfaultfdManager
from repro.host.vma import ANONYMOUS, AddressSpace, FileBacking, Vma
from repro.sim import Environment, Event, SimulationError

if TYPE_CHECKING:
    from repro.vm.vcpu import TraceColumns


#: A resolved fault: ``(kind code, split, end, content, read)``. ``end``
#: is the instant the fault ends; ``split`` the instant its last cost
#: leg starts when two legs remain (a store's MAP_PRIVATE copy, the
#: userfaultfd resume stall), else ``None`` — the event path sleeps to
#: each. ``content`` is the token to install (``None`` when the PTE
#: already exists); ``read`` is the fault's own
#: :class:`~repro.host.readahead.WindowRead`, or ``None``.
Resolution = Tuple[
    int, Optional[float], float, Optional[int], Optional[WindowRead]
]


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
#: The kinds whose fault installs a host PTE, growing the resident set
#: procfs reports (a PRESENT fault finds the PTE there; a COW break
#: rewrites one).
_INSTALL_MASK = bytes(
    1 if b in (ANON_CODE, MINOR_CODE, MAJOR_CODE, UFFD_CODE) else 0
    for b in range(256)
)
#: Jitter buckets of a fault kind's service cost, and each kind's salt
#: in the page hash that picks one (:func:`_bucket`).
_BUCKETS = 1024
_PRESENT_SALT = 1
_ANON_SALT = 2
_MINOR_SALT = 3


def _bucket(page: int, salt: int) -> int:
    """The jitter bucket of a fault of kind ``salt`` on ``page``."""
    return ((page * 2_654_435_761 + salt * 40_503) >> 7) % _BUCKETS


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
        """Append one record."""
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

    def install_instants(self) -> List[float]:
        """The instants the rows that install a host PTE ended, in row
        order: start plus duration, exactly the logged end whenever the
        fault started at least its own duration after instant 0."""
        rows = zip(self.start_us, self.duration_us)
        mask = self.kinds.translate(_INSTALL_MASK)
        return [start + duration for start, duration in compress(rows, mask)]

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
        #: Last VMA the classifier resolved, valid while the space's
        #: mapping ``version`` is unchanged — consecutive accesses
        #: overwhelmingly hit the same region.
        self._vma_cache: Optional[Vma] = None
        self._vma_version = -1
        #: Per-kind service costs, indexed by jitter bucket. Without
        #: jitter every bucket holds the base cost, and the classifier
        #: reads bucket 0 without hashing the page.
        self._jitter = params.fault_jitter_fraction > 0
        self._present_costs = self._cost_table(params.present_fault_us)
        self._anon_costs = self._cost_table(params.anon_fault_us)
        self._minor_costs = self._cost_table(params.minor_fault_us)

    def _cost_table(self, base_us: float) -> List[float]:
        """Service costs of one fault kind, one per jitter bucket.

        Real fault costs vary with cache and TLB state; scaling by a
        hash of the page (:func:`_bucket`) keeps runs reproducible
        while spreading the handling-time distribution (Figure 2)
        realistically.
        """
        jitter = self.params.fault_jitter_fraction
        if jitter <= 0:
            return [base_us] * _BUCKETS
        return [
            base_us * (1.0 + jitter * (2.0 * bucket / 1024.0 - 1.0))
            for bucket in range(_BUCKETS)
        ]

    def classify(
        self, page: int, write: bool, now: float, eager: bool = True
    ) -> Any:
        """Classify a fault on ``page``, which is mapped neither in EPT
        nor in the image, starting at instant ``now``.

        Returns a :data:`Resolution`, or the leg that must block: a
        generator that yields simulation events and returns the
        :data:`Resolution` of what remains. It changes no simulated
        state.

        ``eager`` callers (the batched path) commit a resolution at
        once, on the premise that nothing else runs until the fault
        ends: a read or a userfaultfd handler is priced at ``now``, and
        where a leg would block the answer is ``None``, the event
        path's job. Without ``eager`` (the event path) reads and
        handlers are decided at the instant they start, so their legs
        are returned.
        """
        space = self.space
        params = self.params
        if page in space.pte:
            # Host PTE exists (UFFDIO_COPY or a previous mapping):
            # only the KVM EPT fixup remains.
            bucket = _bucket(page, _PRESENT_SALT) if self._jitter else 0
            end = now + self._present_costs[bucket]
            return PRESENT_CODE, None, end, None, None

        uffd = self.uffd
        if uffd is not None:
            registration = uffd.lookup(page)
            if registration is not None:
                wake = now + params.uffd_wakeup_us
                if not eager:
                    return self._uffd_leg(registration, page, wake)
                outcome = registration.handler(page, wake)
                if type(outcome) is not tuple:
                    return None
                content, done, read = outcome
                return self._handler_done(done, content, read)

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
            bucket = _bucket(page, _ANON_SALT) if self._jitter else 0
            end = now + self._anon_costs[bucket]
            return ANON_CODE, None, end, space.anon_contents.get(page, 0), None

        backing = vma.backing
        file = backing.file
        name = file.name
        file_page = backing.file_start_page + (page - vma.start)
        # Inlined StoredFile.is_hole / page_value and the page-cache
        # residency and in-flight probes: this branch runs once per
        # minor or major fault and the general accessors' overhead is
        # measurable at that rate.
        content = file.pages.get(file_page, 0)
        cache = self.cache
        if file.sparse and content == 0:
            resident = True
        else:
            runs = cache._runs.get(name)
            if runs is None:
                resident = False
            else:
                index = bisect_right(runs.starts, file_page) - 1
                resident = index >= 0 and file_page < runs.ends[index]
        if resident:
            # Resident page or sparse hole: minor fault, no I/O.
            bucket = _bucket(page, _MINOR_SALT) if self._jitter else 0
            end = now + self._minor_costs[bucket]
            if write:
                return MINOR_CODE, end, end + params.cow_copy_us, content, None
            return MINOR_CODE, None, end, content, None

        if (name, file_page) in cache._pending:
            if eager:
                return None
            return self._wait_leg(name, file_page, content, write)
        start = now + params.major_fault_overhead_us
        if not eager:
            return self._read_leg(file, file_page, content, write, start)
        read = self.readahead.quote(file, cache, file_page, start)
        if read is None:
            return None
        return self._read_done(read.end, write, content, read)

    def _read_done(
        self, done: float, write: bool, content: int, read: Optional[WindowRead]
    ) -> Resolution:
        """A MAJOR fault whose own read completed at ``done``: the vCPU
        blocked on it, and waking it costs extra (kvm_vcpu_block,
        Table 3); a store adds the MAP_PRIVATE copy, made inside the
        same fault."""
        end = done + self.params.vcpu_block_overhead_us
        if write:
            return MAJOR_CODE, end, end + self.params.cow_copy_us, content, read
        return MAJOR_CODE, None, end, content, read

    def _handler_done(
        self, done: float, content: int, read: Optional[WindowRead]
    ) -> Resolution:
        """A UFFD fault whose handler finished at ``done``: the
        UFFDIO_COPY install, then the vCPU resume stall — the round
        trip context-switches twice and KVM then waits for the guest
        CPU to be runnable (paper §3.3, §6.4)."""
        params = self.params
        copied = done + params.uffd_copy_us
        end = copied + (params.uffd_resume_stall_us + params.vcpu_block_overhead_us)
        return UFFD_CODE, copied, end, content, read

    def _wait_leg(
        self, name: str, file_page: int, content: int, write: bool
    ) -> Generator[Event, Any, Resolution]:
        """Another thread is already reading the page: wait on its
        completion, then install — a major fault with no block I/O of
        its own."""
        yield self.cache.pending_event(name, file_page)
        params = self.params
        end = self.env.now + (
            params.minor_fault_us + params.vcpu_block_overhead_us
        )
        if write:
            return MAJOR_CODE, end, end + params.cow_copy_us, content, None
        return MAJOR_CODE, None, end, content, None

    def _read_leg(
        self, file, file_page: int, content: int, write: bool, start: float
    ) -> Generator[Event, Any, Resolution]:
        """The fault's own readahead read, on the event heap."""
        yield self.env.wake_at(start)
        read = yield from self.readahead.fault_read(file, self.cache, file_page)
        return self._read_done(self.env.now, write, content, read)

    def _uffd_leg(
        self, registration: UffdRegistration, page: int, wake: float
    ) -> Generator[Event, Any, Resolution]:
        """Delegate the fault: wake the handler thread, then run the
        handler at that instant — sleeping to its answer, issuing its
        read on the event heap, or running its own blocking leg."""
        env = self.env
        yield env.wake_at(wake)
        outcome = registration.handler(page, env.now)
        if type(outcome) is tuple:
            content, done, read = outcome
            if read is None:
                yield env.wake_at(done)
            else:
                read = yield from read.readahead.fault_read(
                    read.file, self.cache, read.start
                )
        else:
            content, read = yield from outcome
        return self._handler_done(env.now, content, read)

    def access(
        self, page: int, write: bool = False, value: Optional[int] = None
    ) -> Generator[Event, Any, FaultRecord]:
        """Process helper: one guest access to ``page``, on the event
        heap.

        ``write=True`` with ``value`` models the guest storing new
        content. Returns the :class:`FaultRecord` (kind ``NONE`` for a
        faultless access). Usage::

            record = yield from handler.access(page, write=True, value=v)
        """
        env = self.env
        start = env.now
        space = self.space
        if page in space.ept or page in space.image:
            end = self.mapped_write(page, value, start) if write else None
            if end is None:
                return FaultRecord(FaultKind.NONE, page, start, 0.0)
            if end != start:
                yield env.wake_at(end)
            return FaultRecord(FaultKind.COW, page, start, end - start)

        outcome = self.classify(page, write, start, eager=False)
        if type(outcome) is not tuple:
            outcome = yield from outcome
        code, split, end, content, read = outcome
        if split is not None:
            yield env.wake_at(split)
        yield env.wake_at(end)
        io = self._commit(code, page, write, value, content, read, start, env.now)
        return FaultRecord(KINDS[code], page, start, env.now - start, *io)

    def fast_access(
        self,
        trace: TraceColumns,
        index: int,
        stop: int,
        vnow: float,
        logged: bytearray,
        none_starts: List[float],
    ) -> Tuple[int, float, bool]:
        """Serve a run of guest accesses synchronously, as long as none
        can block.

        This is the batching fast path (the paper's §3 observation
        that anonymous ≈2.5 µs, minor ≈3.7 µs and EPT-fixup faults
        have deterministic service times makes aggregation exact).
        ``trace`` is the vCPU's :class:`~repro.vm.vcpu.TraceColumns`;
        the run serves accesses ``index`` to ``stop`` on the caller's
        virtual clock ``vnow``, which already includes the think time of
        access ``index``; the think time of each later access is folded
        in before it is served. A read of a page mapped in EPT or the
        image is no fault (its start instant goes to ``none_starts``);
        a store to one goes through :meth:`mapped_write`. Any other
        access is classified, and a resolved fault committed and logged
        at once: its end instant is the one the event path would
        reach, so a later :meth:`Environment.wake_at` flush lands the
        real clock on it. ``logged`` gets one byte per served access, 1
        when it logged a row.

        On a space backed by a shared image (a warm VM) one set
        difference finds the run's pages outside the image, and each
        stretch of image pages between two accesses to those is served
        at once: its stores go to ``write_anon`` in trace order, and its
        start instants are the running sums of the think-time column —
        the same sequential float additions, so every instant is the
        one the per-access loop reaches. The accesses to pages outside
        the image are served one by one.

        A fault that reads or delegates (MAJOR, UFFD) touches state
        other processes share, so it commits only when no other
        simulation event fires before it would complete (checked
        against the event heap) — which covers the common cold-start
        stream of one uncontended readahead window per fault.

        Returns ``(index, vnow, retry)``: ``index == stop`` when the
        whole run was served. Otherwise access ``index`` was not served
        (its think time is in ``vnow``): ``retry`` when it reads or
        delegates past the next heap event, for the caller to flush
        and retry, else it needs the event path (a leg that blocks).
        """
        space = self.space
        ept = space.ept
        image = space.image
        pte = space.pte
        write_anon = space.write_anon
        required_value = self._required_value
        classify = self.classify
        mapped_write = self.mapped_write
        peek = self.env.peek
        cache = self.cache
        stats = self.stats
        log_kind = stats.kinds.append
        log_page = stats.pages.append
        log_start = stats.start_us.append
        log_duration = stats.duration_us.append
        mark = logged.append
        none_start = none_starts.append
        pages = trace.pages
        writes = trace.writes
        values = trace.values
        thinks = trace.thinks
        if image:
            stores = trace.stores
            # One C-level set difference finds the run's pages outside
            # the image; probing the image page by page costs more.
            misses = iter(
                trace.positions(
                    set(pages[index:stop]).difference(image), index, stop
                )
            )
        while True:
            if image:
                miss = next(misses, stop)
                if miss > index:
                    # Image pages up to the next miss: every read is no
                    # fault, every store shadows the image.
                    first = bisect_left(stores, index)
                    last = bisect_left(stores, miss, first)
                    for position in stores[first:last]:
                        write_anon(
                            pages[position],
                            required_value(values[position]),
                        )
                    logged.extend(bytes(miss - index))
                    none_starts.extend(
                        accumulate(thinks[index + 1 : miss], initial=vnow)
                    )
                    vnow = none_starts[-1]
                    if miss == stop:
                        return stop, vnow, False
                    index = miss
                    vnow += thinks[index]
            page = pages[index]
            write = writes[index]
            if page in ept or page in image:
                # A mapped page: a read is no fault and no cost; a
                # store faults only to break copy-on-write.
                end = mapped_write(page, values[index], vnow) if write else None
                if end is None:
                    mark(0)
                    none_start(vnow)
                else:
                    vnow = end
                    mark(1)
            else:
                outcome = classify(page, write, vnow)
                if outcome is None:
                    return index, vnow, False
                code, _, end, content, read = outcome
                io = code in IO_CODES
                if io and peek() <= end:
                    return index, vnow, True
                # The commit, inlined: the event path's twin is _commit.
                if read is not None:
                    read.commit(cache)
                if content is not None:
                    pte[page] = content
                ept.add(page)
                if write:
                    write_anon(page, required_value(values[index]))
                log_kind(code)
                log_page(page)
                log_start(vnow)
                log_duration(end - vnow)
                if io:
                    if code == UFFD_CODE:
                        self.uffd.delegated_faults += 1
                    if read is None:
                        stats.io_requests.append(0)
                        stats.io_bytes.append(0)
                    else:
                        stats.io_requests.append(read.requests)
                        stats.io_bytes.append(read.nbytes)
                vnow = end
                mark(1)
            index += 1
            if index == stop:
                return index, vnow, False
            # Non-positive think times are folded to 0.0 in the column.
            vnow += thinks[index]

    def _commit(
        self,
        code: int,
        page: int,
        write: bool,
        value: Optional[int],
        content: Optional[int],
        read: Optional[WindowRead],
        start: float,
        end: float,
    ) -> Tuple[int, int]:
        """Install the page, apply the store and log the fault; returns
        the fault's own block requests and bytes."""
        space = self.space
        if content is not None:
            space.pte[page] = content
        space.ept.add(page)
        if write:
            space.write_anon(page, self._required_value(value))
        if code not in IO_CODES:
            self.stats.log(code, page, start, end - start)
            return 0, 0
        if code == UFFD_CODE:
            self.uffd.delegated_faults += 1
        io = (0, 0) if read is None else (read.requests, read.nbytes)
        self.stats.log_io(code, page, start, end - start, *io)
        return io

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

    @staticmethod
    def _required_value(value: Optional[int]) -> int:
        if value is None:
            raise SimulationError("write access requires a value")
        return value

    def observed_value(self, page: int) -> int:
        """Content the guest observes at ``page`` right now (for
        memory-integrity assertions in tests)."""
        return self.space.backing_value(page)
