"""mmap address-space semantics.

An :class:`AddressSpace` is the VMM process's view of guest physical
memory: a span of pages covered by non-overlapping :class:`Vma`
regions, each backed either by anonymous memory or by a file at some
offset. New mappings use ``MAP_FIXED`` semantics — they punch through
whatever was there, splitting existing VMAs — which is exactly how
FaaSnap layers its hierarchy (paper §4.8, Figure 4): an anonymous
region for the whole guest address space, non-zero regions mapped
onto the memory file, and loading-set regions mapped onto the
loading-set file, in that order.

The address space also owns the installed host PTEs (which pages are
mapped in hardware, and with what content token) so the fault handler
can distinguish first accesses from repeats and tests can verify
memory integrity end to end.

A guest that booted, or a warm VM that already served an invocation,
holds its whole non-zero memory in anonymous pages mapped at both
levels. Rather than copying tens of thousands of entries into
``pte``/``ept``/``anon_contents`` per VM, such a space carries a
shared read-only :attr:`AddressSpace.image`: a page -> content
:class:`~repro.storage.filestore.PageMap` whose pages count as
installed, EPT-mapped and privately held. Writes shadow image pages in
``anon_contents``/``pte``; the image itself is immutable, so one
snapshot's page map can back any number of VMs.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.sim import SimulationError
from repro.storage.filestore import EMPTY_PAGES, PageMap, StoredFile


class _AnonymousBacking:
    """Singleton marker for anonymous memory."""

    def __repr__(self) -> str:
        return "ANONYMOUS"


ANONYMOUS = _AnonymousBacking()


@dataclass(frozen=True, slots=True)
class FileBacking:
    """File-backed mapping: VMA page ``start + i`` maps to file page
    ``file_start_page + i``."""

    file: StoredFile
    file_start_page: int


Backing = Union[_AnonymousBacking, FileBacking]


@dataclass(slots=True)
class Vma:
    """A contiguous mapped region. Never mutated: a mapping plan's
    resolved layout shares its VMAs among every space it installs in,
    and a later mmap replaces the VMAs it splits rather than editing
    them. (Not ``frozen``: a frozen dataclass's ``__init__`` costs
    about three times as much, and splits build one per piece.)"""

    start: int
    npages: int
    backing: Backing

    @property
    def end(self) -> int:
        """One past the last mapped page."""
        return self.start + self.npages

    def contains(self, page: int) -> bool:
        return self.start <= page < self.end

    def file_page(self, page: int) -> int:
        """File page index backing address ``page``."""
        if not isinstance(self.backing, FileBacking):
            raise SimulationError("file_page() on an anonymous VMA")
        if not self.contains(page):
            raise SimulationError(f"page {page} outside VMA [{self.start},{self.end})")
        return self.backing.file_start_page + (page - self.start)

    def _slice(self, start: int, npages: int) -> "Vma":
        """A sub-VMA covering [start, start+npages) with adjusted
        file offset."""
        if isinstance(self.backing, FileBacking):
            backing: Backing = FileBacking(
                self.backing.file,
                self.backing.file_start_page + (start - self.start),
            )
        else:
            backing = self.backing
        return Vma(start=start, npages=npages, backing=backing)


class AddressSpace:
    """The VMM's guest-memory address space."""

    def __init__(self, num_pages: int):
        if num_pages < 1:
            raise SimulationError("address space needs at least one page")
        self.num_pages = num_pages
        self._vmas: List[Vma] = []
        self._starts: List[int] = []
        #: Installed host PTEs: page -> content token currently mapped.
        self.pte: Dict[int, int] = {}
        #: Guest-side (KVM EPT) mappings: pages the guest has already
        #: faulted in. An access to a page in ``ept`` costs nothing;
        #: a page with a host PTE but no EPT entry takes only the fast
        #: KVM fixup (paper: REAP's in-working-set faults, <4 us).
        self.ept: set = set()
        #: Contents of anonymous pages that have been written.
        self.anon_contents: Dict[int, int] = {}
        #: Shared read-only anonymous contents (see module docs):
        #: every page here is mapped at PTE and EPT level unless a
        #: write has shadowed it in ``anon_contents``/``pte``.
        self.image: PageMap = EMPTY_PAGES
        #: The image's key view: ``page in image_pages`` is the dict's
        #: own membership test, where ``page in image`` goes through
        #: the generic slot of a dict subclass (about 40% slower).
        self.image_pages = EMPTY_PAGES.keys()
        #: Number of mmap() calls issued (paper §4.6 counts these).
        self.mmap_calls = 0
        #: Bumped whenever the VMA list changes; lets the fault
        #: handler cache the last-resolved VMA safely.
        self.version = 0

    # -- mapping ------------------------------------------------------

    def mmap_anonymous(self, start: int, npages: int) -> Vma:
        """Map ``[start, start+npages)`` to anonymous memory."""
        return self._mmap(Vma(start, npages, ANONYMOUS))

    def mmap_file(
        self, start: int, npages: int, file: StoredFile, file_start_page: int
    ) -> Vma:
        """Map ``[start, start+npages)`` to ``file`` at
        ``file_start_page`` with MAP_FIXED overlay semantics."""
        if file_start_page < 0 or file_start_page + npages > file.num_pages:
            raise SimulationError(
                f"mapping beyond EOF of {file.name}: {file_start_page}+{npages}"
            )
        return self._mmap(Vma(start, npages, FileBacking(file, file_start_page)))

    def _mmap(self, vma: Vma) -> Vma:
        if vma.npages < 1:
            raise SimulationError("empty mapping")
        if vma.start < 0 or vma.end > self.num_pages:
            raise SimulationError(
                f"mapping [{vma.start},{vma.end}) outside address space "
                f"of {self.num_pages} pages"
            )
        self._carve(vma.start, vma.npages)
        index = bisect.bisect_left(self._starts, vma.start)
        self._vmas.insert(index, vma)
        self._starts.insert(index, vma.start)
        self.mmap_calls += 1
        self.version += 1
        # MAP_FIXED discards the old mapping, including installed PTEs
        # and any anonymous contents beneath.
        self._discard_state(vma.start, vma.end)
        return vma

    def install_layout(self, vmas: Tuple[Vma, ...], calls: int) -> None:
        """Map an empty space with ``vmas``: the sorted, non-overlapping
        VMAs that ``calls`` mmap() calls leave, resolved beforehand
        (see :meth:`repro.vm.vmm.MappingPlan.layout`). VMAs are never
        mutated, so they are shared rather than copied."""
        if self._vmas:
            raise SimulationError("install_layout() on a mapped space")
        self._vmas = list(vmas)
        self._starts = [vma.start for vma in vmas]
        self.mmap_calls += calls
        self.version += 1

    def map_image(self, image: PageMap) -> None:
        """Back the whole space with anonymous memory holding
        ``image`` (page -> content), every page mapped at both levels.

        O(1): the immutable map is shared, not copied."""
        self.mmap_anonymous(0, self.num_pages)
        self.image = image
        self.image_pages = image.keys()

    def _discard_state(self, start: int, end: int) -> None:
        """Drop PTEs, anonymous contents and EPT entries in a range,
        iterating whichever side is smaller (restores map thousands of
        regions over an address space whose state is still empty)."""
        if self.image:
            # Remapping under an image: copy it into the private
            # containers first so the pages outside the range survive
            # (the shared map itself is never modified).
            self._materialize_image()
        npages = end - start
        for mapping in (self.pte, self.anon_contents):
            if not mapping:
                continue
            if len(mapping) < npages:
                for page in [p for p in mapping if start <= p < end]:
                    del mapping[page]
            else:
                for page in range(start, end):
                    mapping.pop(page, None)
        ept = self.ept
        if ept:
            if len(ept) < npages:
                ept.difference_update(
                    [p for p in ept if start <= p < end]
                )
            else:
                for page in range(start, end):
                    ept.discard(page)

    def _materialize_image(self) -> None:
        """Copy the image into the private maps and drop it."""
        image = self.image
        self.image = EMPTY_PAGES
        self.image_pages = EMPTY_PAGES.keys()
        for page, value in image.items():
            if page not in self.anon_contents:
                self.anon_contents[page] = value
                self.pte[page] = value
        self.ept.update(image)

    def _carve(self, start: int, npages: int) -> None:
        """Remove [start, start+npages) from existing VMAs, splicing
        only the overlapping window instead of rebuilding the whole
        (possibly thousands-long) region list."""
        end = start + npages
        vmas = self._vmas
        starts = self._starts
        # First region that could overlap: the one covering ``start``
        # if it extends past it, else the first starting after.
        low = bisect.bisect_right(starts, start) - 1
        if low < 0 or vmas[low].end <= start:
            low += 1
        # First region starting at or beyond ``end`` is untouched.
        high = bisect.bisect_left(starts, end)
        if low >= high:
            return
        replacement: List[Vma] = []
        for vma in vmas[low:high]:
            if vma.start < start:
                replacement.append(vma._slice(vma.start, start - vma.start))
            if vma.end > end:
                replacement.append(vma._slice(end, vma.end - end))
        vmas[low:high] = replacement
        starts[low:high] = [v.start for v in replacement]

    # -- lookup -------------------------------------------------------

    def resolve(self, page: int) -> Optional[Vma]:
        """The VMA covering ``page``, or None if unmapped."""
        if not 0 <= page < self.num_pages:
            raise SimulationError(f"page {page} outside address space")
        index = bisect.bisect_right(self._starts, page) - 1
        if index < 0:
            return None
        vma = self._vmas[index]
        return vma if vma.contains(page) else None

    def vmas(self) -> List[Vma]:
        """All VMAs in address order."""
        return list(self._vmas)

    # -- PTE / contents ----------------------------------------------

    def is_installed(self, page: int) -> bool:
        """True if a host PTE exists for ``page``."""
        return page in self.pte or page in self.image_pages

    def install_pte(self, page: int, value: int) -> None:
        """Install a host PTE mapping ``page`` to content ``value``."""
        self.pte[page] = value

    def rss_pages(self) -> int:
        """Resident set size in pages (what procfs reports)."""
        image = self.image
        if not image:
            return len(self.pte)
        # Shadowed image pages sit in both maps; the intersection
        # iterates the (small) private side.
        shadowed = len(self.pte.keys() & image.keys())
        return len(image) + len(self.pte) - shadowed

    def write_anon(self, page: int, value: int) -> None:
        """Record a write to an anonymous page's contents."""
        self.anon_contents[page] = value
        self.pte[page] = value

    def backing_value(self, page: int) -> int:
        """Content the process observes at ``page``: written anonymous
        contents win; then the image; otherwise the backing file's
        page; otherwise zero (fresh anonymous memory)."""
        if page in self.anon_contents:
            return self.anon_contents[page]
        if page in self.image_pages:
            return self.image[page]
        vma = self.resolve(page)
        if vma is None:
            raise SimulationError(f"access to unmapped page {page} (SIGSEGV)")
        if isinstance(vma.backing, FileBacking):
            return vma.backing.file.page_value(vma.file_page(page))
        return 0

    def coverage_gaps(self) -> List[Tuple[int, int]]:
        """Unmapped ranges ``(start, npages)`` — must be empty for a
        correctly restored guest (memory-integrity invariant)."""
        gaps: List[Tuple[int, int]] = []
        cursor = 0
        for vma in self._vmas:
            if vma.start > cursor:
                gaps.append((cursor, vma.start - cursor))
            cursor = max(cursor, vma.end)
        if cursor < self.num_pages:
            gaps.append((cursor, self.num_pages - cursor))
        return gaps
