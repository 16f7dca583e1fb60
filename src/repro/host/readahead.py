"""Fault-time readahead with sequential ramp-up.

On a major fault the Linux kernel does not read just the faulting
page: it pulls a window of neighbouring file pages into the page
cache, and for sequential fault streams it doubles the window up to a
ceiling so streaming reads approach device bandwidth. The paper leans
on this twice:

* §3.3 — Firecracker's sub-32 us "major" faults are really minor
  faults on pages a previous fault's readahead already cached;
* §4.4 — host page recording deliberately includes readahead-cached
  pages in the working set because readahead "predicts" future
  accesses of invocations with different inputs.

The window extends forward from the faulting page and is trimmed at
the first already-resident (or already in-flight) page, mirroring
Linux's behaviour of not re-reading cached ranges. Sequentiality is
tracked per file: a fault landing at or just past the previous
window's end doubles the next window (up to ``readahead_max_pages``);
anything else resets it to the base size.

A window is a page range, ``[fault_page, end)`` plus the window size
it was cut from (:meth:`ReadaheadPolicy.span`); its pages are never
listed on the fault path. A dense file reads it as one device request.
The read runs one of two ways. :meth:`ReadaheadPolicy.fault_read`
issues it on the event heap. :meth:`ReadaheadPolicy.quote` prices it
ahead, mutating nothing, when the device is idle and healthy — with
the device's own per-request arithmetic, so the quote lands on the
instant the event-driven read would reach — and
:meth:`WindowRead.commit` applies it once the caller knows nothing
else ran meanwhile.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.host.page_cache import PageCache
from repro.host.params import HostParams
from repro.sim import Event
from repro.storage.device import ReadQuote
from repro.storage.filestore import PAGE_SIZE, StoredFile

#: Slack after the previous window's end still considered sequential.
_SEQUENTIAL_SLACK_PAGES = 4


class ReadaheadPolicy:
    """Computes, prices and executes readahead windows for major
    faults."""

    def __init__(self, params: HostParams):
        self.params = params
        #: Per-file stream state: file name -> (window_end, window_size).
        self._streams: Dict[str, Tuple[int, int]] = {}

    def next_window_size(self, file_name: str, fault_page: int) -> int:
        """Window size for a fault at ``fault_page``, updating the
        per-file sequential-stream state."""
        base = self.params.readahead_pages
        previous = self._streams.get(file_name)
        if previous is not None:
            window_end, window_size = previous
            sequential = (
                window_end
                <= fault_page
                <= window_end + _SEQUENTIAL_SLACK_PAGES
            )
            if sequential:
                return min(window_size * 2, self.params.readahead_max_pages)
        return base

    def span(
        self, file: StoredFile, cache: PageCache, fault_page: int
    ) -> Tuple[int, int]:
        """Compute the window for a fault on ``fault_page`` without
        committing the per-file stream state: the faulting page plus
        forward neighbours, stopping at the file end, the window
        limit, or the first resident/in-flight page. Returns
        ``(end, window_size)``: the window is ``[fault_page, end)``.
        Pass both to :meth:`commit` once the read is actually
        issued."""
        name = file.name
        size = self.next_window_size(name, fault_page)
        limit = min(file.num_pages, fault_page + size)
        pending = cache._pending
        if cache.capacity_pages is None:
            runs = cache._runs.get(name)
            if runs is not None:
                resident = runs.first_at_or_after(fault_page + 1)
                if resident is not None and resident < limit:
                    limit = resident
            if pending:
                for page in range(fault_page + 1, limit):
                    if (name, page) in pending:
                        return page, size
            return limit, size
        present = cache._present
        for page in range(fault_page + 1, limit):
            if (name, page) in present or (name, page) in pending:
                return page, size
        return limit, size

    def commit(self, file_name: str, end: int, size: int) -> None:
        """Record the issued window, ending at ``end``, in the
        sequential-stream state."""
        self._streams[file_name] = (end, size)

    def window(
        self, file: StoredFile, cache: PageCache, fault_page: int
    ) -> List[int]:
        """File pages to read for a fault on ``fault_page``, listed
        (spans and commits in one step)."""
        end, size = self.span(file, cache, fault_page)
        self.commit(file.name, end, size)
        return list(range(fault_page, end))

    def quote(
        self, file: StoredFile, cache: PageCache, fault_page: int, start: float
    ) -> Optional["WindowRead"]:
        """Price the read for a fault on ``fault_page`` issued at
        ``start``, mutating nothing, or ``None`` when the device would
        queue it (or is degraded): then only :meth:`fault_read` can
        tell when it completes."""
        device = file.device
        if not device.can_read_immediately():
            return None
        end, size = self.span(file, cache, fault_page)
        npages = end - fault_page
        extents = _extents(file, fault_page, npages)
        return WindowRead(
            self, file, fault_page, npages, size, extents,
            device.quote(extents, start),
        )

    def fault_read(
        self, file: StoredFile, cache: PageCache, fault_page: int
    ) -> Generator[Event, Any, "WindowRead"]:
        """Process helper: perform the readahead read for a fault.

        Marks the window pending, reads it from the device as one
        contiguous request (split only by sparse holes), inserts the
        pages into the cache, and returns the read (whose requests and
        bytes are the fault's own: other readers of the device are not
        counted).
        """
        name = file.name
        end, size = self.span(file, cache, fault_page)
        self.commit(name, end, size)
        npages = end - fault_page
        # The window is contiguous and was trimmed at the first
        # resident/in-flight page, so one placeholder range announces
        # it without allocating per-page events.
        cache.note_pending_range(name, fault_page, npages)
        try:
            yield from file.read(fault_page, npages)
        except BaseException:
            cache.abandon_pending_range(name, fault_page, npages)
            raise
        # The window is contiguous: one range insertion instead of a
        # per-page loop (completes the pending reads identically).
        cache.insert_range(name, fault_page, npages)
        return WindowRead(
            self, file, fault_page, npages, size,
            _extents(file, fault_page, npages),
        )


def _extents(
    file: StoredFile, start: int, npages: int
) -> List[Tuple[int, int]]:
    """Device ``(offset, nbytes)`` of each request reading the
    contiguous window of ``npages`` pages from ``start``: one for a
    dense file; sparse holes split it and cost no I/O."""
    if not file.sparse:
        return [(file.base_offset + start * PAGE_SIZE, npages * PAGE_SIZE)]
    return [
        (file.device_offset(run), length * PAGE_SIZE)
        for run, length in file.data_runs(start, npages)
    ]


class WindowRead:
    """One fault's readahead read: the window ``[start, start +
    npages)``, its device requests and bytes, and — when
    :meth:`ReadaheadPolicy.quote` priced it ahead — the device quote,
    applied by :meth:`commit`."""

    __slots__ = (
        "readahead",
        "file",
        "start",
        "npages",
        "size",
        "requests",
        "nbytes",
        "quote",
        "end",
    )

    def __init__(
        self,
        readahead: ReadaheadPolicy,
        file: StoredFile,
        start: int,
        npages: int,
        size: int,
        extents: List[Tuple[int, int]],
        quote: Optional[ReadQuote] = None,
    ):
        self.readahead = readahead
        self.file = file
        self.start = start
        self.npages = npages
        self.size = size
        self.requests = len(extents)
        self.nbytes = sum(map(itemgetter(1), extents))
        self.quote = quote
        #: The instant the quoted read completes.
        self.end = None if quote is None else quote[0]

    def commit(self, cache: PageCache) -> None:
        """Apply the quoted read, in the order :meth:`fault_read`
        would: stream state, device statistics and cursor, then cache
        residency."""
        name = self.file.name
        start = self.start
        npages = self.npages
        self.readahead.commit(name, start + npages, self.size)
        self.file.device.settle(self.quote)
        cache.insert_range(name, start, npages)
