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
  image at once. On any other, once it has served a streak of
  accesses without I/O, it serves the next chunk of the trace in bulk
  (:meth:`FaultHandler._stretch`): the longest prefix that is all
  PRESENT faults, or all ANON and MINOR faults on files the page cache
  holds whole, classified with column operations against the state at
  the chunk's start and committed at once, its clock one
  ``accumulate`` (:func:`_stretch_clock`). A NONE access, an I/O
  fault, a valueless store, jittered costs or a userfaultfd handler's
  faults end or skip the bulk stretch, and those accesses take the
  per-access code. The loop stops at the first access that cannot be served so,
  or that must let a heap event run first;
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
from itertools import accumulate, compress, count, filterfalse, repeat
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Generator,
    Iterator,
    List,
    NamedTuple,
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
from repro.storage.filestore import StoredFile

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


#: The run loop serves accesses in bulk (:meth:`FaultHandler._stretch`)
#: once it has served this many in a row without I/O, in chunks that
#: start at ``_STRETCH_FIRST`` accesses and double, up to
#: ``_STRETCH_MAX``, while each is served whole.
_STRETCH_ENGAGE = 16
_STRETCH_FIRST = 64
_STRETCH_MAX = 4096
#: What a page faults as in a stretch, its class: unmapped (never
#: served in bulk), PRESENT, ANON, or MINOR on a mapped file
#: (``_FILE_CLASS`` plus the file's slot in :attr:`_Layout.files`).
_UNMAPPED = 0
_PRESENT_CLASS = 1
_ANON_CLASS = 2
_FILE_CLASS = 3
#: ``bytes.translate`` table from a class to its fault's kind code.
_CLASS_KINDS = bytes(
    (0, PRESENT_CODE, ANON_CODE) + (MINOR_CODE,) * (256 - _FILE_CLASS)
)


class _Layout(NamedTuple):
    """A space's VMAs as :meth:`FaultHandler._stretch` classifies pages,
    built for one mapping ``version``.

    A space of one VMA keeps just that ``vma``. In any other, ``index``
    holds each page's segment: 0 is the background (anonymous memory
    where the VMAs tile the space, else unmapped) and each VMA outside
    it is a segment of its own. Per segment, ``classes`` holds its class,
    ``deltas`` what to add to a page for its file page, and ``sources``
    the map its pages' contents are read from: its file's page map,
    which never changes (a stored file's map is immutable, and only
    ever swapped for an equal one), or the space's anonymous contents.
    ``files`` holds the mapped files, one per slot."""

    version: int
    vma: Optional[Vma]
    index: Optional[array]
    classes: bytes
    deltas: List[int]
    sources: List[Dict[int, int]]
    files: List[StoredFile]


def _position(chunk: List[int], hits: Iterator[int]) -> int:
    """The position in ``chunk`` of the first of ``hits``, a filter over
    it on a test of the page alone (so the page's first position is the
    first hit), else the length of ``chunk``."""
    hit = next(hits, None)
    return len(chunk) if hit is None else chunk.index(hit)


def _first_repeat(chunk: List[int]) -> int:
    """The position of the first page ``chunk`` repeats, else its
    length."""
    seen: Dict[int, int] = {}
    firsts = map(seen.setdefault, chunk, count())
    repeats = compress(count(), map(operator.ne, firsts, count()))
    return next(repeats, len(chunk))


def _stretch_clock(
    vnow: float,
    costs: List[float],
    thinks: List[float],
    copies: List[int],
    copy_us: float,
) -> Tuple[List[float], List[float]]:
    """The start and end instants of faults served back to back from
    ``vnow``: fault ``i`` costs ``costs[i]``, plus ``copy_us`` when
    ``i`` is in ``copies`` (a store's copy-on-write leg), and fault
    ``i + 1`` starts ``thinks[i]`` after fault ``i`` ends.

    One ``accumulate`` runs over interleaved ``[cost, copy, think]``
    steps, the copy left out when no fault has one and ``0.0`` where
    one has none (``x + 0.0 == x``): the float additions of the
    per-access loop, in its order, so every instant is bit for bit
    the one it reaches."""
    step = 3 if copies else 2
    clock = [0.0] * (step * len(costs) - 1)
    clock[::step] = costs
    clock[step - 1 :: step] = thinks
    for offset in copies:
        clock[step * offset + 1] = copy_us
    instants = list(accumulate(clock, initial=vnow))
    return instants[::step], instants[step - 1 :: step]


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
        #: Each stretch class's fault cost (jitter keeps stretches off).
        self._class_costs = (
            0.0,
            self._present_costs[0],
            self._anon_costs[0],
        ) + (self._minor_costs[0],) * (256 - _FILE_CLASS)
        #: The space's :class:`_Layout`, built on a stretch's first need.
        self._layout: Optional[_Layout] = None

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
            # ``after`` counts the runs starting at or before the page.
            runs = cache._runs.get(name)
            starts = () if runs is None else runs.starts
            after = bisect_right(starts, file_page) if starts else 0
            resident = after > 0 and file_page < runs.ends[after - 1]
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
        # The window stops at the next resident page at the latest: the
        # start of the run after the probed one, found by the same bisect.
        resident_from = file.num_pages if after == len(starts) else starts[after]
        read = self.readahead.quote(
            file, cache, file_page, start, resident_from
        )
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
        if page in space.ept or page in space.image_pages:
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
        image is no fault and logs no row; a store to one goes through
        :meth:`mapped_write`. Any other access is classified, and a
        resolved fault committed and logged at once: its end instant is
        the one the event path would reach, so a later
        :meth:`Environment.wake_at` flush lands the real clock on it.

        On a space backed by a shared image (a warm VM) one C-level
        pass finds the run's pages outside the image, and each
        stretch of image pages between two accesses to those is served
        at once: its stores go to ``write_anon`` in trace order, and the
        clock moves by its think times added one by one in trace order —
        the same sequential float additions, so the clock lands on the
        instant the per-access loop reaches. The accesses to pages outside
        the image are served one by one.

        On any other space, once :data:`_STRETCH_ENGAGE` accesses in a
        row were served without I/O, the next chunk is served in bulk
        by :meth:`_stretch`; chunks double while each is served whole,
        and an I/O fault drops back to the streak. A chunk cut short
        goes on access by access at the access that cut it.

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
        image_pages = space.image_pages
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
        pages = trace.pages
        writes = trace.writes
        values = trace.values
        thinks = trace.thinks
        if image:
            stores = trace.stores
            # The run's distinct pages outside the image, in C-level
            # passes (``set.difference`` would walk the whole image: its
            # fast path takes exact dicts only, and the image is a
            # PageMap).
            distinct = set(pages[index:stop])
            misses = iter(
                trace.positions(
                    set(filterfalse(image.__contains__, distinct)),
                    index,
                    stop,
                )
            )
        # Accesses served in a row without I/O; from ``engage`` on, the
        # loop serves ``chunk`` accesses at a time in bulk. Jittered
        # costs never engage it: a streak within one call stays below
        # ``stop``. (Nor does an image, whose stretches are served above.)
        streak = 0
        engage = stop if self._jitter else _STRETCH_ENGAGE
        chunk = _STRETCH_FIRST
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
                    vnow = reduce(operator.add, thinks[index + 1 : miss], vnow)
                    if miss == stop:
                        return stop, vnow, False
                    index = miss
                    vnow += thinks[index]
            elif streak >= engage:
                bound = min(stop, index + chunk)
                served, vnow = self._stretch(trace, index, bound, vnow)
                if served:
                    index += served
                    if index == stop:
                        return stop, vnow, False
                    vnow += thinks[index]
                    if index == bound:
                        chunk = min(chunk * 2, _STRETCH_MAX)
                        continue
                else:
                    # Nothing to serve in bulk here: serve another
                    # streak access by access before trying again.
                    streak = 0
            page = pages[index]
            write = writes[index]
            if page in ept or page in image_pages:
                # A mapped page: a read is no fault and no cost; a
                # store faults only to break copy-on-write.
                if write:
                    end = mapped_write(page, values[index], vnow)
                    if end is not None:
                        vnow = end
                streak += 1
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
                    streak = 0
                    chunk = _STRETCH_FIRST
                else:
                    streak += 1
                vnow = end
            index += 1
            if index == stop:
                return index, vnow, False
            # Non-positive think times are folded to 0.0 in the column.
            vnow += thinks[index]

    def _stretch(
        self, trace: TraceColumns, index: int, stop: int, vnow: float
    ) -> Tuple[int, float]:
        """Serve at once the longest stretch of accesses from ``index``
        (its think time already in ``vnow``) up to ``stop`` that are
        faults without I/O: PRESENT faults, or else ANON and MINOR
        faults. Returns how many were served and the instant the last
        one ended (``vnow`` when none was).

        The stretch is classified against the state at its start:
        residency changes only through I/O faults and heap events, and
        a stretch holds neither. It ends before the first access that
        is not such a fault, or that the per-access loop must serve:

        * a page mapped in EPT or repeated in the stretch (a NONE
          access);
        * after a PRESENT fault, a page without a host PTE; after any
          other, a page with one;
        * an unmapped page, or a page of a file the page cache does not
          hold whole (:meth:`~repro.host.page_cache.PageCache.holds_file`);
        * a valueless store (the loop raises at it).

        A space with a userfaultfd manager has only PRESENT stretches
        served so. The fault log, the mappings and the stores are
        committed with column operations, the stores in trace order;
        the clock is :func:`_stretch_clock`.
        """
        space = self.space
        pte = space.pte
        pages = trace.pages
        chunk = pages[index:stop]
        present = chunk[0] in pte
        if present:
            classes = bytes((_PRESENT_CLASS,)) * len(chunk)
            contents = None
        elif self.uffd is None:
            classes, contents = self._classify_stretch(chunk)
        else:
            return 0, vnow
        # Each cut is the first position of its kind over the whole
        # chunk; the stretch ends at the first of them.
        size = len(chunk)
        ept = space.ept
        distinct = set(chunk)
        if len(distinct) < size or not ept.isdisjoint(distinct):
            size = min(
                _position(chunk, filter(ept.__contains__, chunk)),
                _first_repeat(chunk),
            )
        if present:
            if not pte.keys() >= distinct:
                misses = filterfalse(pte.__contains__, chunk)
                size = min(size, _position(chunk, misses))
        elif not pte.keys().isdisjoint(distinct):
            size = min(size, _position(chunk, filter(pte.__contains__, chunk)))
        stores = trace.stores
        first = bisect_left(stores, index)
        positions = stores[first : bisect_left(stores, index + size, first)]
        stored = list(map(trace.values.__getitem__, positions))
        if None in stored:
            # Left to the per-access loop, which raises at that store.
            cut = stored.index(None)
            size = positions[cut] - index
            del stored[cut:], positions[cut:]
        if not size:
            return 0, vnow
        if size < len(chunk):
            del chunk[size:]
            classes = classes[:size]
            if contents is not None:
                del contents[size:]
        kind = classes[0]
        class_costs = self._class_costs
        if classes.count(kind) == size:
            costs = [class_costs[kind]] * size
            # A MINOR store also copies the page (MAP_PRIVATE).
            copies = [p - index for p in positions] if kind >= _FILE_CLASS else []
        else:
            costs = list(map(class_costs.__getitem__, classes))
            copies = [
                p - index for p in positions if classes[p - index] >= _FILE_CLASS
            ]
        starts, ends = _stretch_clock(
            vnow,
            costs,
            trace.thinks[index + 1 : index + size],
            copies,
            self.params.cow_copy_us,
        )
        stats = self.stats
        stats.kinds += classes.translate(_CLASS_KINDS)
        stats.pages.fromlist(chunk)
        stats.start_us.fromlist(starts)
        stats.duration_us.fromlist(list(map(operator.sub, ends, starts)))
        ept.update(chunk)
        if contents is not None:
            pte.update(zip(chunk, contents))
        if stored:
            written = list(map(pages.__getitem__, positions))
            space.anon_contents.update(zip(written, stored))
            pte.update(zip(written, stored))
        return size, ends[-1]

    def _classify_stretch(
        self, chunk: List[int]
    ) -> Tuple[bytes, List[int]]:
        """The class of each page of ``chunk``, as a fault on a page
        without a host PTE, and the content its fault installs, once
        ``chunk`` is cut before the first page that is unmapped or of a
        file the page cache does not hold whole (possibly to nothing)."""
        space = self.space
        layout = self._layout
        if layout is None or layout.version != space.version:
            layout = self._layout = self._build_layout()
        vma = layout.vma
        if vma is not None:
            # One VMA: one class throughout, and one range check.
            backing = vma.backing
            if backing is ANONYMOUS:
                cls = _ANON_CLASS
            elif self.cache.holds_file(backing.file):
                cls = _FILE_CLASS
            else:
                cls = _UNMAPPED
            if cls and vma.start <= min(chunk) and max(chunk) < vma.end:
                if cls == _ANON_CLASS:
                    anon = space.anon_contents
                    contents = list(map(anon.get, chunk, repeat(0)))
                else:
                    delta = backing.file_start_page - vma.start
                    file_pages = (
                        map(operator.add, chunk, repeat(delta)) if delta else chunk
                    )
                    get = backing.file.pages.get
                    contents = list(map(get, file_pages, repeat(0)))
                return bytes((cls,)) * len(chunk), contents
        elif (
            layout.index is not None
            and min(chunk) >= 0
            and max(chunk) < space.num_pages
        ):
            segments = list(map(layout.index.__getitem__, chunk))
            classes = bytes(map(layout.classes.__getitem__, segments))
            size = classes.find(_UNMAPPED)
            if size < 0:
                size = len(chunk)
            for slot, file in enumerate(layout.files):
                first = classes.find(_FILE_CLASS + slot, 0, size)
                if first >= 0 and not self.cache.holds_file(file):
                    size = first
            if size < len(chunk):
                del chunk[size:], segments[size:]
                classes = classes[:size]
            file_pages = map(
                operator.add, chunk, map(layout.deltas.__getitem__, segments)
            )
            sources = map(layout.sources.__getitem__, segments)
            return classes, list(map(dict.get, sources, file_pages, repeat(0)))
        del chunk[:]
        return b"", []

    def _build_layout(self) -> _Layout:
        """The space's :class:`_Layout` at its current mapping version:
        one with neither a VMA nor an index, which serves nothing in
        bulk, when the VMAs outnumber an ``H`` array's values or the
        files a class byte's."""
        space = self.space
        version = space.version
        vmas = space.vmas()
        if len(vmas) == 1:
            return _Layout(version, vmas[0], None, b"", [], [], [])
        unserved = _Layout(version, None, None, b"", [], [], [])
        if len(vmas) >= 1 << 16:
            return unserved
        tiled = sum(vma.npages for vma in vmas) == space.num_pages
        anon = space.anon_contents
        classes = bytearray((_ANON_CLASS if tiled else _UNMAPPED,))
        deltas = [0]
        sources: List[Dict[int, int]] = [anon]
        files: List[StoredFile] = []
        slots: Dict[int, int] = {}
        index = array("H", (0,)) * space.num_pages
        for vma in vmas:
            backing = vma.backing
            if backing is ANONYMOUS:
                if tiled:
                    continue
                classes.append(_ANON_CLASS)
                deltas.append(0)
                sources.append(anon)
            else:
                file = backing.file
                # Files compare by value: slot them by identity.
                slot = slots.setdefault(id(file), len(files))
                if slot == len(files):
                    if _FILE_CLASS + slot > 255:
                        return unserved
                    files.append(file)
                classes.append(_FILE_CLASS + slot)
                deltas.append(backing.file_start_page - vma.start)
                sources.append(file.pages)
            segment = len(deltas) - 1
            index[vma.start : vma.start + vma.npages] = (
                array("H", (segment,)) * vma.npages
            )
        return _Layout(version, None, index, bytes(classes), deltas, sources, files)

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
        if page not in space.anon_contents and page not in space.image_pages:
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
