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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, Iterable, List, Optional, Tuple

from repro.sim import Environment, Event, SimulationError
from repro.storage.device import BlockDevice

PAGE_SIZE = 4096
"""Bytes per page, matching the x86 base page size used throughout."""

#: 32-bit FNV-1a parameters of :meth:`StoredFile.chunk_checksums`.
_FNV_OFFSET = 2166136261
_FNV_PRIME = 16777619
_MOD32 = 1 << 32
_MASK32 = _MOD32 - 1


@dataclass
class StoredFile:
    """A named file occupying a contiguous device extent."""

    name: str
    device: BlockDevice
    base_offset: int
    num_pages: int
    #: Page index -> content token. Missing entries are zero (holes).
    pages: Dict[int, int] = field(default_factory=dict)
    #: Sparse files skip device I/O for hole pages.
    sparse: bool = False

    @property
    def size_bytes(self) -> int:
        return self.num_pages * PAGE_SIZE

    def page_value(self, page_index: int) -> int:
        """Content token of ``page_index`` (0 for holes)."""
        self._check_page(page_index)
        return self.pages.get(page_index, 0)

    def write_page(self, page_index: int, value: int) -> None:
        """Set page contents (metadata operation; snapshot creation is
        not on the measured critical path, see §4.1 record phase)."""
        self._check_page(page_index)
        if value == 0:
            self.pages.pop(page_index, None)
        else:
            self.pages[page_index] = value

    def device_offset(self, page_index: int) -> int:
        """Device byte offset where ``page_index`` is stored."""
        self._check_page(page_index)
        return self.base_offset + page_index * PAGE_SIZE

    def is_hole(self, page_index: int) -> bool:
        """True when the page is all zeros and stored as a hole."""
        return self.sparse and self.page_value(page_index) == 0

    def nonzero_pages(self) -> List[int]:
        """Sorted indices of pages with nonzero contents."""
        return sorted(self.pages)

    def chunk_checksums(self, chunk_pages: int) -> Tuple[int, ...]:
        """Per-chunk FNV-1a checksums over page content tokens.

        Chunk ``i`` covers pages ``[i*chunk_pages, (i+1)*chunk_pages)``
        (the last chunk may be short). Holes hash as zeros, so two
        files with identical logical contents checksum identically
        whether stored sparse or dense. This is the integrity unit
        the snapshot durability plane publishes, verifies at restore
        time, and scrubs (:mod:`repro.faults.durability`)."""
        if chunk_pages < 1:
            raise SimulationError(
                f"chunk_pages must be >= 1, got {chunk_pages}"
            )
        # Folding a zero token is ``digest * FNV_PRIME mod 2**32``, so a
        # run of z zero pages multiplies by FNV_PRIME**z: only non-zero
        # entries are visited, and each all-zero chunk costs one list
        # slot. Bit-identical to folding every page in turn.
        num_pages = self.num_pages
        powers: Dict[int, int] = {}
        checksums: List[int] = []

        def fold_zeros(digest: int, zeros: int) -> int:
            factor = powers.get(zeros)
            if factor is None:
                factor = powers[zeros] = pow(_FNV_PRIME, zeros, _MOD32)
            return (digest * factor) & _MASK32

        def close(chunk: int, digest: int, cursor: int, until: int) -> None:
            """Emit ``chunk`` (folded up to page ``cursor``) and the
            all-zero chunks after it, up to chunk ``until``."""
            end = min((chunk + 1) * chunk_pages, num_pages)
            checksums.append(fold_zeros(digest, end - cursor))
            if until > chunk + 1:
                empty = fold_zeros(_FNV_OFFSET, chunk_pages)
                checksums.extend([empty] * (until - chunk - 2))
                last = (until - 1) * chunk_pages
                checksums.append(
                    fold_zeros(_FNV_OFFSET, min(chunk_pages, num_pages - last))
                )

        pages = self.pages
        chunk = 0
        digest = _FNV_OFFSET
        cursor = 0  # first page of ``chunk`` not yet folded in
        for index in sorted(pages):
            target = index // chunk_pages
            if target != chunk:
                close(chunk, digest, cursor, target)
                chunk = target
                digest = _FNV_OFFSET
                cursor = target * chunk_pages
            if index > cursor:
                digest = fold_zeros(digest, index - cursor)
            value = pages[index] & _MASK32
            digest = ((digest ^ value) * _FNV_PRIME) & _MASK32
            cursor = index + 1
        if num_pages:
            close(chunk, digest, cursor, -(-num_pages // chunk_pages))
        return tuple(checksums)

    def read(
        self, page_index: int, npages: int = 1
    ) -> Generator[Event, Any, List[int]]:
        """Process helper: read ``npages`` pages starting at
        ``page_index`` from the device and return their contents.

        Hole pages of sparse files are synthesised without I/O; runs
        of data pages are issued as single contiguous device reads.
        """
        self._check_page(page_index)
        if npages < 1:
            raise SimulationError(f"read of {npages} pages")
        if page_index + npages > self.num_pages:
            raise SimulationError(
                f"read past EOF of {self.name}: page {page_index}+{npages} "
                f"> {self.num_pages}"
            )
        values = [self.page_value(page_index + i) for i in range(npages)]
        for run_start, run_len in self.data_runs(page_index, npages):
            yield from self.device.read(
                self.base_offset + run_start * PAGE_SIZE, run_len * PAGE_SIZE
            )
        return values

    def data_runs(
        self, page_index: int, npages: int
    ) -> Iterable[Tuple[int, int]]:
        """Contiguous runs of pages that require device I/O (holes of
        sparse files split runs and cost nothing)."""
        if not self.sparse:
            yield (page_index, npages)
            return
        run_start: Optional[int] = None
        for i in range(page_index, page_index + npages):
            if self.page_value(i) != 0:
                if run_start is None:
                    run_start = i
            elif run_start is not None:
                yield (run_start, i - run_start)
                run_start = None
        if run_start is not None:
            yield (run_start, page_index + npages - run_start)

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
        """Create ``name`` with ``num_pages`` pages of capacity."""
        if name in self._files:
            raise SimulationError(f"file {name!r} already exists")
        if num_pages < 0:
            raise SimulationError(f"negative file size: {num_pages}")
        for page in pages or ():
            if not 0 <= page < num_pages:
                raise SimulationError(
                    f"page {page} out of range for {name} "
                    f"({num_pages} pages)"
                )
        stored = StoredFile(
            name=name,
            device=self.device,
            base_offset=self._next_offset,
            num_pages=num_pages,
            pages=dict(pages or {}),
            sparse=sparse,
        )
        self._files[name] = stored
        self._next_offset += num_pages * PAGE_SIZE
        return stored

    def get(self, name: str) -> StoredFile:
        """Look up an existing file."""
        try:
            return self._files[name]
        except KeyError:
            raise SimulationError(f"no such file: {name!r}") from None

    def delete(self, name: str) -> None:
        """Remove a file (its extent is not reused)."""
        if name not in self._files:
            raise SimulationError(f"no such file: {name!r}")
        del self._files[name]

    def exists(self, name: str) -> bool:
        return name in self._files

    def names(self) -> List[str]:
        return sorted(self._files)
