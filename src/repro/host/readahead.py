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

from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.host.page_cache import PageCache
from repro.host.params import HostParams
from repro.sim import Event
from repro.storage.device import ReadQuote
from repro.storage.filestore import StoredFile

#: Slack after the previous window's end still considered sequential.
_SEQUENTIAL_SLACK_PAGES = 4


class ReadaheadPolicy:
    """Computes, prices and executes readahead windows for major
    faults."""

    def __init__(self, params: HostParams):
        self.params = params
        #: Per-file stream state: file name -> (window_end, window_size).
        self._streams: Dict[str, Tuple[int, int]] = {}

    def span(
        self,
        file: StoredFile,
        cache: PageCache,
        fault_page: int,
        resident_from: Optional[int] = None,
    ) -> Tuple[int, int]:
        """Compute the window for a fault on ``fault_page`` without
        committing the per-file stream state: the faulting page plus
        forward neighbours, stopping at the file end, the window
        limit, or the first resident/in-flight page. Returns
        ``(end, window_size)``: the window is ``[fault_page, end)``.
        Pass both to :meth:`commit` once the read goes ahead. A
        caller that has just probed the faulting page's residency
        passes the first resident page after it as ``resident_from``,
        and only in-flight pages are looked up.

        The window size is the base size, or — when the fault lands at
        or just past the previous window's end — that window's size
        doubled, up to the ceiling."""
        name = file.name
        params = self.params
        size = params.readahead_pages
        stream = self._streams.get(name)
        if stream is not None:
            window_end, window_size = stream
            if window_end <= fault_page <= window_end + _SEQUENTIAL_SLACK_PAGES:
                size = min(window_size * 2, params.readahead_max_pages)
        limit = fault_page + size
        if resident_from is None:
            end = cache.first_cached_or_pending(
                name, fault_page + 1, min(file.num_pages, limit)
            )
        else:
            # ``resident_from`` is at most the file's end.
            if resident_from < limit:
                limit = resident_from
            end = cache.first_pending(name, fault_page + 1, limit)
        return end, size

    def commit(self, file_name: str, end: int, size: int) -> None:
        """Record the issued window, ending at ``end``, in the
        sequential-stream state."""
        self._streams[file_name] = (end, size)

    def quote(
        self,
        file: StoredFile,
        cache: PageCache,
        fault_page: int,
        start: float,
        resident_from: Optional[int] = None,
    ) -> Optional["WindowRead"]:
        """Price the read for a fault on ``fault_page`` issued at
        ``start``, mutating nothing, or ``None`` when the device would
        queue it (or is degraded): then only :meth:`fault_read` can
        tell when it completes. ``resident_from`` is :meth:`span`'s."""
        device = file.device
        if not device.can_read_immediately():
            return None
        end, size = self.span(file, cache, fault_page, resident_from)
        npages = end - fault_page
        extents = file.extents(fault_page, npages)
        return WindowRead(
            self, file, fault_page, npages, size, extents,
            device.quote(extents, start),
        )

    def fault_read(
        self, file: StoredFile, cache: PageCache, fault_page: int
    ) -> Generator[Event, Any, "WindowRead"]:
        """Process helper: perform the readahead read for a fault.

        Fills the window into the cache (:meth:`PageCache.fill`) and
        returns the read, whose requests and bytes are the extents the
        fill read: other readers of the device are not counted.
        """
        end, size = self.span(file, cache, fault_page)
        self.commit(file.name, end, size)
        npages = end - fault_page
        # The window was trimmed at the first resident/in-flight page
        # after the faulting one, so the whole window is brought in.
        extents = yield from cache.fill(
            file, fault_page, npages, ((fault_page, end),)
        )
        return WindowRead(self, file, fault_page, npages, size, extents)


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
        # A plain sum: building an itemgetter costs more than adding
        # a window's one or two extents.
        nbytes = 0
        for _, extent_bytes in extents:
            nbytes += extent_bytes
        self.nbytes = nbytes
        self.quote = quote
        #: The instant the quoted read completes.
        self.end = None if quote is None else quote[0]

    def commit(self, cache: PageCache) -> None:
        """Apply the quoted read, in the order :meth:`fault_read`
        would: stream state, device statistics and cursor, then cache
        residency, inserted at the instant the read completes."""
        name = self.file.name
        start = self.start
        npages = self.npages
        self.readahead.commit(name, start + npages, self.size)
        self.file.device.settle(self.quote)
        cache.insert_range(name, start, npages, self.end)
