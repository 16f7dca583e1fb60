"""Files laid out on a block device.

A :class:`StoredFile` owns a contiguous extent of its device, so byte
offset ``o`` within the file lives at device offset ``base + o`` —
sequential file reads are sequential device reads, which is exactly
the property FaaSnap's compact loading-set file exploits (§4.7).

Files also carry *page contents* as small integers: ``0`` is a zero
page, any other value identifies a distinct page's content. This is
enough to model the paper's zero-page scan (§4.5), sparse snapshot
files (§7.2), and end-to-end memory-integrity checks in tests, while
keeping the simulation cheap.

Sparse files never pay disk I/O for hole (zero) pages: the filesystem
synthesises zeros without touching the device.

A file's page map is a :class:`PageMap`: immutable and zero-free, so
any number of files (and warm VMs' images, see
:meth:`~repro.vm.vmm.MicroVM.make_warm`) may share one map object,
which computes its data runs and checksums once for all of them.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from repro.sim import Environment, Event, SimulationError
from repro.storage.device import BlockDevice

PAGE_SIZE = 4096
"""Bytes per page, matching the x86 base page size used throughout."""

#: 32-bit FNV-1a parameters of :meth:`PageMap.chunk_checksums`.
_FNV_OFFSET = 2166136261
_FNV_PRIME = 16777619
_MOD32 = 1 << 32
_MASK32 = _MOD32 - 1


def page_runs(pages: List[int]) -> Tuple[List[int], List[int]]:
    """Maximal runs of consecutive pages in ascending ``pages``, as
    parallel lists of first pages and exclusive ends."""
    starts: List[int] = []
    ends: List[Optional[int]] = []  # each run's start closes the run before
    end: Optional[int] = None
    for page in pages:
        if page != end:
            starts.append(page)
            ends.append(end)
        end = page + 1
    ends.append(end)
    return starts, ends[1:]


class PageMap(dict):
    """An immutable page map: page index -> non-zero content token.

    Zero values are dropped at construction, so a page is a hole
    exactly when it is missing. Every mutator raises, which is what
    lets files, the clean snapshot memo and warm VMs' images share
    one map, and lets the map memoize what is derived from it: its
    sorted data runs (:meth:`runs`) and its per-chunk checksums
    (:meth:`chunk_checksums`). Lookups are the ``dict``'s own C
    methods; it pickles (and deep-copies) as a fresh, equal map."""

    __slots__ = ("_runs", "_checksums")

    def __init__(self, pages: Dict[int, int] = {}) -> None:
        if 0 in pages.values():
            pages = {page: value for page, value in pages.items() if value}
        dict.__init__(self, pages)
        self._runs: Optional[Tuple[List[int], List[int]]] = None
        self._checksums: Dict[Tuple[int, int], Tuple[int, ...]] = {}

    def _immutable(self, *args: Any, **kwargs: Any) -> Any:
        raise TypeError("a PageMap is immutable")

    __setitem__ = __delitem__ = __ior__ = _immutable
    update = pop = popitem = clear = setdefault = _immutable

    def __reduce__(self) -> Tuple[Any, ...]:
        return PageMap, (dict(self),)

    def runs(self) -> Tuple[List[int], List[int]]:
        """The map's :func:`page_runs`, built on first call."""
        if self._runs is None:
            self._runs = page_runs(sorted(self))
        return self._runs

    def chunk_checksums(
        self, num_pages: int, chunk_pages: int
    ) -> Tuple[int, ...]:
        """Per-chunk FNV-1a checksums over the page content tokens of a
        ``num_pages``-page file holding this map, memoized per (file
        size, chunk size).

        Chunk ``i`` covers pages ``[i*chunk_pages, (i+1)*chunk_pages)``
        (the last chunk may be short). Holes hash as zeros, so two
        files with identical logical contents checksum identically
        whether stored sparse or dense. This is the integrity unit
        the snapshot durability plane publishes, verifies at restore
        time, and scrubs (:mod:`repro.faults.durability`)."""
        key = (num_pages, chunk_pages)
        memo = self._checksums.get(key)
        if memo is not None:
            return memo
        if chunk_pages < 1:
            raise SimulationError(
                f"chunk_pages must be >= 1, got {chunk_pages}"
            )
        # Folding a zero token is ``digest * FNV_PRIME mod 2**32``, so a
        # run of z zero pages multiplies by FNV_PRIME**z: each chunk
        # visits only the pages of the data runs inside it. Bit-identical
        # to folding every page in turn.
        powers: Dict[int, int] = {}

        def fold_zeros(digest: int, zeros: int) -> int:
            factor = powers.get(zeros)
            if factor is None:
                factor = powers[zeros] = pow(_FNV_PRIME, zeros, _MOD32)
            return (digest * factor) & _MASK32

        starts, ends = self.runs()
        value_of = self.__getitem__
        checksums: List[int] = []
        run = 0
        for first in range(0, num_pages, chunk_pages):
            last = min(first + chunk_pages, num_pages)
            digest = _FNV_OFFSET
            cursor = first  # first page of the chunk not yet folded in
            while run < len(starts) and starts[run] < last:
                start = max(starts[run], cursor)
                end = min(ends[run], last)
                digest = fold_zeros(digest, start - cursor)
                for page in range(start, end):
                    value = value_of(page) & _MASK32
                    digest = ((digest ^ value) * _FNV_PRIME) & _MASK32
                cursor = end
                if ends[run] > last:
                    break  # the run goes on in the next chunk
                run += 1
            checksums.append(fold_zeros(digest, last - cursor))
        memo = self._checksums[key] = tuple(checksums)
        return memo


#: The page map of every file created without contents.
EMPTY_PAGES = PageMap()


@dataclass
class StoredFile:
    """A named file occupying a contiguous device extent.

    ``pages`` is a :class:`PageMap`, immutable by construction, so
    other files, the clean snapshot memo and warm VMs' images may hold
    the same map object."""

    name: str
    device: BlockDevice
    base_offset: int
    num_pages: int
    #: Page index -> non-zero content token; missing pages are holes.
    pages: PageMap
    #: Sparse files skip device I/O for hole pages.
    sparse: bool = False

    @property
    def size_bytes(self) -> int:
        return self.num_pages * PAGE_SIZE

    def page_value(self, page_index: int) -> int:
        """Content token of ``page_index`` (0 for holes)."""
        self._check_page(page_index)
        return self.pages.get(page_index, 0)

    def is_hole(self, page_index: int) -> bool:
        """True when the page is all zeros and stored as a hole."""
        return self.sparse and self.page_value(page_index) == 0

    def chunk_checksums(self, chunk_pages: int) -> Tuple[int, ...]:
        """The file's :meth:`PageMap.chunk_checksums`: files sharing a
        page map share the tuple."""
        return self.pages.chunk_checksums(self.num_pages, chunk_pages)

    def read(
        self, page_index: int, npages: int = 1
    ) -> Generator[Event, Any, List[Tuple[int, int]]]:
        """Process helper: read ``npages`` pages starting at
        ``page_index`` from the device (their contents are
        :meth:`page_value`), one request per :meth:`extents` entry.
        Returns those extents."""
        extents = self.extents(page_index, npages)
        device = self.device
        for offset, nbytes in extents:
            yield from device.read(offset, nbytes)
        return extents

    def extents(self, page_index: int, npages: int) -> List[Tuple[int, int]]:
        """Device ``(offset, nbytes)`` of each request that reads
        ``npages`` pages from ``page_index``: one for a dense file.
        Hole pages of sparse files are synthesised without I/O, so
        they split the range and cost nothing."""
        if (
            page_index < 0
            or npages < 1
            or page_index + npages > self.num_pages
        ):
            self._check_page(page_index)
            if npages < 1:
                raise SimulationError(f"read of {npages} pages")
            raise SimulationError(
                f"read past EOF of {self.name}: page {page_index}+{npages} "
                f"> {self.num_pages}"
            )
        base = self.base_offset
        if not self.sparse:
            return [(base + page_index * PAGE_SIZE, npages * PAGE_SIZE)]
        # The data runs that overlap the window, clipped to it.
        end = page_index + npages
        starts, ends = self.pages.runs()
        index = bisect_right(ends, page_index)
        count = len(starts)
        extents: List[Tuple[int, int]] = []
        while index < count and starts[index] < end:
            lo = starts[index]
            hi = ends[index]
            index += 1
            if lo < page_index:
                lo = page_index
            if hi > end:
                hi = end
            extents.append((base + lo * PAGE_SIZE, (hi - lo) * PAGE_SIZE))
        return extents

    def check_pages(self, pages: Sequence[int]) -> None:
        """Raise unless every one of ``pages`` (non-empty) lies in
        the file."""
        self._check_page(min(pages))
        self._check_page(max(pages))

    def _check_page(self, page_index: int) -> None:
        if not 0 <= page_index < self.num_pages:
            raise SimulationError(
                f"page {page_index} out of range for {self.name} "
                f"({self.num_pages} pages)"
            )


class FileStore:
    """Allocates files contiguously on a device."""

    def __init__(self, env: Environment, device: BlockDevice):
        self.env = env
        self.device = device
        self._files: Dict[str, StoredFile] = {}
        self._next_offset = 0

    def create(
        self,
        name: str,
        num_pages: int,
        pages: Optional[Dict[int, int]] = None,
        sparse: bool = False,
    ) -> StoredFile:
        """Create ``name`` with ``num_pages`` pages of capacity.

        A :class:`PageMap` is kept as it is (files share page maps);
        any other mapping is converted once, dropping zero values."""
        if name in self._files:
            raise SimulationError(f"file {name!r} already exists")
        if num_pages < 0:
            raise SimulationError(f"negative file size: {num_pages}")
        if pages:
            for page in (min(pages), max(pages)):
                if not 0 <= page < num_pages:
                    raise SimulationError(
                        f"page {page} out of range for {name} "
                        f"({num_pages} pages)"
                    )
        if not isinstance(pages, PageMap):
            pages = PageMap(pages or {})
        stored = StoredFile(
            name=name,
            device=self.device,
            base_offset=self._next_offset,
            num_pages=num_pages,
            pages=pages or EMPTY_PAGES,
            sparse=sparse,
        )
        self._files[name] = stored
        self._next_offset += num_pages * PAGE_SIZE
        return stored
