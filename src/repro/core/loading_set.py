"""Loading sets: the compact prefetch unit of FaaSnap.

Paper §4.6-§4.7: the *loading set* is the working set minus its zero
pages (those will be served by anonymous mappings). Adjacent loading
regions separated by at most 32 pages are merged — the gap pages
(zero or non-working-set pages) are included, trading a little extra
data for far fewer mmap calls. The merged regions are then sorted by
(group number, address) and written to a compact *loading-set file*
whose layout matches that order, so the daemon loader reads it
strictly sequentially while populating pages scattered all over the
guest address space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Container, List, Set, Tuple

from repro.core.working_set import WorkingSetGroups
from repro.storage.filestore import FileStore, StoredFile, page_runs
from repro.vm.snapshot import Snapshot

#: Paper §4.6: merge regions separated by at most 32 pages.
DEFAULT_MERGE_GAP_PAGES = 32


@dataclass(frozen=True)
class LoadingRegion:
    """A contiguous guest range backed by the loading-set file."""

    start: int
    npages: int
    group: int
    #: Page offset of this region inside the loading-set file.
    file_offset: int

    @property
    def end(self) -> int:
        return self.start + self.npages


@dataclass
class LoadingSet:
    """Ordered loading regions plus summary accounting."""

    #: Regions sorted by (group, start) — the file layout order.
    regions: List[LoadingRegion] = field(default_factory=list)
    #: Pages that are working-set-and-non-zero (before gap merging).
    essential_pages: int = 0
    #: Total pages across merged regions (essential + gap filler).
    total_pages: int = 0
    #: Number of regions before merging (paper: >1000 for hello-world).
    unmerged_region_count: int = 0

    @property
    def region_count(self) -> int:
        return len(self.regions)

    @property
    def gap_pages(self) -> int:
        """Extra pages pulled in by merging."""
        return self.total_pages - self.essential_pages

    @property
    def size_mb(self) -> float:
        return self.total_pages * 4096 / 1e6

    def covered_pages(self) -> Set[int]:
        """Every guest page mapped to the loading-set file."""
        covered: Set[int] = set()
        for region in self.regions:
            covered.update(range(region.start, region.end))
        return covered


def _merge_runs(
    starts: List[int], ends: List[int], merge_gap: int
) -> List[Tuple[int, int]]:
    """``(start, npages)`` regions of the runs ``[starts[i], ends[i])``
    (see :func:`~repro.storage.filestore.page_runs`), merging runs
    whose separating gap is at most ``merge_gap`` pages and absorbing
    the gap pages (paper §4.6)."""
    merged: List[Tuple[int, int]] = []
    for start, end in zip(starts, ends):
        if merged:
            prev_start, prev_npages = merged[-1]
            gap = start - (prev_start + prev_npages)
            if gap <= merge_gap:
                merged[-1] = (prev_start, end - prev_start)
                continue
        merged.append((start, end - start))
    return merged


def build_loading_set(
    working_set: WorkingSetGroups,
    nonzero_pages: Container[int],
    merge_gap: int = DEFAULT_MERGE_GAP_PAGES,
) -> LoadingSet:
    """Intersect the working set with the non-zero pages, merge, sort.

    ``nonzero_pages`` is any container of the snapshot's non-zero
    pages, such as its memory file's page map. The region's group
    number is the lowest group of any working-set page it contains
    (§4.5: "a region is also assigned a group number, which is the
    lowest group number of any page in the region").
    """
    if merge_gap < 0:
        raise ValueError("merge_gap must be >= 0")
    loading_pages = sorted(p for p in working_set.pages if p in nonzero_pages)
    starts, ends = page_runs(loading_pages)
    merged = _merge_runs(starts, ends, merge_gap)

    regions: List[Tuple[int, int, int]] = []  # (group, start, npages)
    for start, npages in merged:
        group = min(
            working_set.group(p)
            for p in range(start, start + npages)
            if p in working_set
        )
        regions.append((group, start, npages))
    regions.sort()

    placed: List[LoadingRegion] = []
    offset = 0
    for group, start, npages in regions:
        placed.append(
            LoadingRegion(
                start=start, npages=npages, group=group, file_offset=offset
            )
        )
        offset += npages

    return LoadingSet(
        regions=placed,
        essential_pages=len(loading_pages),
        total_pages=offset,
        unmerged_region_count=len(starts),
    )


def write_loading_set_file(
    store: FileStore, name: str, loading_set: LoadingSet, snapshot: Snapshot
) -> StoredFile:
    """Write the compact loading-set file.

    File page ``region.file_offset + i`` holds the contents of guest
    page ``region.start + i`` from the (post-record) snapshot. The
    file is dense (not sparse): gap pages are stored as real zero
    blocks so the loader's reads stay contiguous.
    """
    pages = {
        region.file_offset + i: snapshot.page_value(region.start + i)
        for region in loading_set.regions
        for i in range(region.npages)
    }
    return store.create(
        name, max(loading_set.total_pages, 1), pages=pages, sparse=False
    )
