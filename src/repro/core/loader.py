"""The FaaSnap daemon loader: concurrent paging (paper §4.2).

The loader is a daemon thread that starts prefetching the moment the
invocation request arrives — concurrently with VMM setup and guest
execution, never blocking either. Pages it reads land in the host
page cache; guest faults on them become minor faults, and guest
faults racing an in-flight loader read wait for that read instead of
issuing their own (§6.5).

Three loader flavours back the Figure 9 ablation ladder:

* :func:`loading_set_loader` — full FaaSnap: stream the compact
  loading-set file start to finish (it is already laid out in
  (group, address) order, §4.7);
* :func:`ordered_pages_loader` over group-ordered pages — per-region
  ablation: read the working set from the *memory file*, groups in
  order, addresses ascending within a group (§4.3);
* :func:`ordered_pages_loader` over address-ordered pages —
  concurrent-paging-only ablation: read the working set from the
  memory file in plain address order (§6.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, List, Sequence, Tuple

from repro.host.page_cache import PageCache
from repro.sim import Environment, Event
from repro.storage.errors import DeviceError
from repro.storage.filestore import StoredFile

#: Pages per loader read request.
DEFAULT_CHUNK_PAGES = 64

#: Gaps up to this many pages are read through rather than split into
#: separate requests (I/O-scheduler-style merging).
DEFAULT_COALESCE_GAP = 32


@dataclass
class LoaderStats:
    """Accounting for one loader run (Table 3's fetch columns)."""

    started_us: float = 0.0
    finished_us: float = 0.0
    pages_fetched: int = 0
    bytes_read: int = 0
    requests: int = 0
    #: Injected I/O errors that made the loader give up early. The
    #: guest then demand-faults the unfetched pages itself.
    errors: int = 0

    @property
    def fetch_time_us(self) -> float:
        return self.finished_us - self.started_us


def _read_chunk(
    env: Environment,
    cache: PageCache,
    file: StoredFile,
    start: int,
    npages: int,
    stats: LoaderStats,
) -> Generator[Event, Any, None]:
    """Read one contiguous file chunk, publishing pending state so
    concurrent guest faults wait on it."""
    # One interval computation instead of a per-page residency +
    # pending probe: ``fresh`` is the ascending list of sub-ranges the
    # chunk still has to read.
    fresh = cache.missing_ranges(file.name, start, npages)
    if not fresh:
        return
    for run_start, run_end in fresh:
        cache.note_pending_range(file.name, run_start, run_end - run_start)
    before_requests = file.device.stats.requests
    before_bytes = file.device.stats.bytes_read
    try:
        yield from file.read(start, npages)
    except BaseException:
        for run_start, run_end in fresh:
            cache.abandon_pending_range(
                file.name, run_start, run_end - run_start
            )
        raise
    # Insert each fresh run in one range operation: runs are ascending,
    # so pending completions and the insertion log keep the exact
    # per-page order the per-page loop produced.
    fetched = 0
    for run_start, run_end in fresh:
        cache.insert_range(file.name, run_start, run_end - run_start)
        fetched += run_end - run_start
    stats.pages_fetched += fetched
    stats.requests += file.device.stats.requests - before_requests
    stats.bytes_read += file.device.stats.bytes_read - before_bytes


def loading_set_loader(
    env: Environment,
    cache: PageCache,
    loading_file: StoredFile,
    stats: LoaderStats,
    chunk_pages: int = DEFAULT_CHUNK_PAGES,
) -> Generator[Event, Any, LoaderStats]:
    """Process helper: stream the whole loading-set file sequentially."""
    stats.started_us = env.now
    try:
        for start in range(0, loading_file.num_pages, chunk_pages):
            npages = min(chunk_pages, loading_file.num_pages - start)
            yield from _read_chunk(
                env, cache, loading_file, start, npages, stats
            )
    except DeviceError:
        # A daemon loader thread hitting an I/O error gives up: the
        # remaining pages are simply never prefetched and the guest
        # demand-faults them. Absorbing the error here (the chunk
        # reader already abandoned its pending marks) keeps the
        # loader process from dying unobserved — the invocation may
        # have finished without ever joining it.
        stats.errors += 1
    stats.finished_us = env.now
    return stats


def coalesce_ordered_pages(
    pages: Sequence[int],
    coalesce_gap: int = DEFAULT_COALESCE_GAP,
    chunk_pages: int = DEFAULT_CHUNK_PAGES,
) -> List[Tuple[int, int]]:
    """Turn an ordered page list into read units ``(start, npages)``.

    Consecutive-or-nearby pages (ascending, gap <= ``coalesce_gap``)
    merge into one read that spans the gap; units are capped at
    ``chunk_pages``. Out-of-order jumps always start a new unit —
    this is what makes address-ordered loading disk-friendlier than
    access-ordered loading (§4.3).
    """
    units: List[Tuple[int, int]] = []
    for page in pages:
        if units:
            start, npages = units[-1]
            end = start + npages
            if 0 <= page - end <= coalesce_gap and (
                page - start + 1 <= chunk_pages
            ):
                units[-1] = (start, page - start + 1)
                continue
            if start <= page < end:
                continue  # already covered by the current unit
        units.append((page, 1))
    return units


def ordered_pages_loader(
    env: Environment,
    cache: PageCache,
    memory_file: StoredFile,
    pages: Sequence[int],
    stats: LoaderStats,
    coalesce_gap: int = DEFAULT_COALESCE_GAP,
    chunk_pages: int = DEFAULT_CHUNK_PAGES,
) -> Generator[Event, Any, LoaderStats]:
    """Process helper: prefetch ``pages`` from the memory file in the
    given order, coalescing nearby ascending pages into single reads."""
    stats.started_us = env.now
    try:
        for start, npages in coalesce_ordered_pages(
            pages, coalesce_gap, chunk_pages
        ):
            yield from _read_chunk(
                env, cache, memory_file, start, npages, stats
            )
    except DeviceError:
        # Same bail-out as loading_set_loader: give up on the first
        # injected I/O error and let demand paging cover the rest.
        stats.errors += 1
    stats.finished_us = env.now
    return stats
