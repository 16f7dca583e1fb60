"""The FaaSnap daemon loader: concurrent paging (paper §4.2).

The loader is a daemon thread that starts prefetching the moment the
invocation request arrives — concurrently with VMM setup and guest
execution, never blocking either. Pages it reads land in the host
page cache; guest faults on them become minor faults, and guest
faults racing an in-flight loader read wait for that read instead of
issuing their own (§6.5).

There is one loader, :func:`ordered_pages_loader`, over a list of read
units ``(start, npages)`` of one file. Its inputs back the Figure 9
ablation ladder:

* full FaaSnap: fixed-size chunks of the compact loading-set file,
  start to finish (:func:`file_chunks`; the file is already laid out
  in (group, address) order, §4.7);
* per-region ablation: the working set read from the *memory file*,
  groups in order, addresses ascending within a group (§4.3),
  coalesced by :func:`coalesce_ordered_pages`;
* concurrent-paging-only ablation: the working set read from the
  memory file in plain address order (§6.5), coalesced the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
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


def file_chunks(
    num_pages: int, chunk_pages: int = DEFAULT_CHUNK_PAGES
) -> List[Tuple[int, int]]:
    """Read units covering ``[0, num_pages)`` in order, ``chunk_pages``
    each (the last may be short)."""
    return [
        (start, min(chunk_pages, num_pages - start))
        for start in range(0, num_pages, chunk_pages)
    ]


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
    file: StoredFile,
    units: Sequence[Tuple[int, int]],
    stats: LoaderStats,
) -> Generator[Event, Any, LoaderStats]:
    """Process helper: prefetch the read ``units`` of ``file`` in
    order. A unit whose pages are all resident or in flight is
    skipped; otherwise the whole unit is read and its missing pages
    inserted (:meth:`PageCache.fill`). ``stats`` counts the pages
    inserted and the device requests and bytes of the loader's own
    reads."""
    stats.started_us = env.now
    name = file.name
    try:
        for start, npages in units:
            runs = cache.missing_ranges(name, start, npages)
            if not runs:
                continue
            extents = yield from cache.fill(file, start, npages, runs)
            stats.pages_fetched += sum(end - run for run, end in runs)
            stats.requests += len(extents)
            stats.bytes_read += sum(map(itemgetter(1), extents))
    except DeviceError:
        # A daemon loader thread hitting an I/O error gives up: the
        # remaining pages are simply never prefetched and the guest
        # demand-faults them. Absorbing the error here (the fill
        # already abandoned its pending marks) keeps the loader
        # process from dying unobserved — the invocation may have
        # finished without ever joining it.
        stats.errors += 1
    stats.finished_us = env.now
    return stats


#: FaaSnap's loading-set loader is the one loader over
#: :func:`file_chunks` of the loading-set file. The traced benchmark
#: run (``perfbench/layers.py``) times the loader under both names.
loading_set_loader = ordered_pages_loader
