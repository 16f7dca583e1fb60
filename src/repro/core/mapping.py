"""Per-region memory mapping (paper §4.5, §4.8, Table 1, Figure 4).

FaaSnap maps guest memory as a three-layer MAP_FIXED hierarchy:

1. an **anonymous** region covering the entire guest address space —
   this serves the *released set* (pages the guest freed, sanitized
   to zero during the record phase) and the *unused set* (never
   touched), so guest anonymous allocation becomes fast host
   anonymous faults instead of disk reads;
2. the **non-zero regions** of the memory file, mapped file-backed at
   identical offsets — this covers the *cold set* (non-zero pages
   outside the working set) for memory integrity;
3. the **loading-set regions**, mapped onto the compact loading-set
   file at their recorded offsets.

Scanning the memory file yields exact alternating zero/non-zero runs;
mapping every tiny non-zero run separately would cost thousands of
mmap calls, so non-zero runs separated by only a few zero pages are
coalesced (the zero pages in between stay file-backed; the memory
file is sparse, so faulting them costs no I/O and returns zeros —
semantics are preserved).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.loading_set import LoadingSet, _merge_runs
from repro.storage.filestore import PageMap, StoredFile
from repro.vm.snapshot import Snapshot
from repro.vm.vmm import MappingPlan

#: Gap tolerance when coalescing non-zero runs into mapped regions.
DEFAULT_NONZERO_MERGE_GAP = 16


def nonzero_regions(
    pages: PageMap, merge_gap: int = DEFAULT_NONZERO_MERGE_GAP
) -> List[Tuple[int, int]]:
    """Coalesced ``(start, npages)`` regions covering all of ``pages``
    (and at most ``merge_gap``-page zero gaps between them): the
    map's data runs, merged."""
    return _merge_runs(*pages.runs(), merge_gap)


def build_faasnap_plan(
    snapshot: Snapshot,
    loading_set: Optional[LoadingSet] = None,
    loading_file: Optional[StoredFile] = None,
    nonzero_merge_gap: int = DEFAULT_NONZERO_MERGE_GAP,
) -> MappingPlan:
    """The full per-region mapping plan of Figure 4.

    Without a loading set this is the bare per-region ablation: zero
    regions anonymous, non-zero regions on the memory file.
    """
    if (loading_set is None) != (loading_file is None):
        raise ValueError("loading_set and loading_file go together")
    # Snapshot contents are immutable after capture and the plan is
    # read-only when applied, so the (identical) plan every restore of
    # the same artefacts would rebuild — a region merge and a mapping
    # per region — is memoized on the snapshot.
    key = (
        loading_file.name if loading_file is not None else None,
        nonzero_merge_gap,
    )
    cache = getattr(snapshot, "_plan_cache", None)
    if cache is None:
        cache = {}
        snapshot._plan_cache = cache
    cached = cache.get(key)
    if cached is not None:
        return cached
    plan = MappingPlan()
    plan.add_anonymous(0, snapshot.num_pages)
    for start, npages in nonzero_regions(
        snapshot.memory_file.pages, nonzero_merge_gap
    ):
        plan.add_file(start, npages, snapshot.memory_file, start)
    if loading_set is not None and loading_file is not None:
        for region in loading_set.regions:
            plan.add_file(
                region.start, region.npages, loading_file, region.file_offset
            )
    cache[key] = plan
    return plan
