"""The host OS page cache.

Keyed by ``(file name, page index)``. Two states matter to the
simulation:

* **present** — the page's contents are resident; a file-backed fault
  on it is a *minor* fault.
* **pending** — some process (the FaaSnap loader, a readahead window,
  another VM's fault) has an in-flight disk read for the page. A
  fault arriving meanwhile blocks on the existing read instead of
  issuing a duplicate one — this is how bursty same-snapshot VMs
  "load the cache for each other" (paper §6.6) and why FaaSnap's
  concurrent-paging major faults are cheaper than Firecracker's
  (§6.5).

The cache never evicts on its own: the paper's host has 192 GB of
memory and drops caches between runs (§6.1), which
:meth:`PageCache.drop_file` and :meth:`PageCache.drop_all` model.
Residency is stored per file as sorted runs of half-open intervals.
Snapshot working sets are large and mostly contiguous — loaders,
readahead windows and sequential scans insert neighbouring pages — so
a megabyte of residency collapses to a handful of ``[start, end)``
boundary pairs instead of hundreds of thousands of set entries, and
:meth:`PageCache.insert_range` merges a whole window in one splice.

A file can be *watched* (:meth:`PageCache.watch`): while the watch is
open, every page newly inserted into the file is logged in insertion
order with the simulated instant of its insertion, and so is each drop
of the file (a :class:`Watch`). FaaSnap's host page recording (§4.4)
replays that log; nothing else is logged.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import repeat
from typing import (
    Any,
    Dict,
    Generator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.sim import Environment, Event, SimulationError
from repro.storage.filestore import PageMap, StoredFile

PageKey = Tuple[str, int]

#: Placeholder for an in-flight read nobody waits on yet. The pending
#: map stores this instead of an :class:`Event` until the first waiter
#: asks for the event (``pending_event``), so bulk loaders and
#: readahead windows never allocate events — or schedule no-callback
#: completions — for the overwhelmingly common uncontended case.
_PENDING_PLACEHOLDER = object()


class _IntervalRuns:
    """Sorted, disjoint, non-adjacent half-open runs of page indices."""

    __slots__ = ("starts", "ends", "count")

    def __init__(self) -> None:
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.count = 0

    def contains(self, page: int) -> bool:
        index = bisect_right(self.starts, page) - 1
        return index >= 0 and page < self.ends[index]

    def covers(self, starts: Sequence[int], ends: Sequence[int]) -> bool:
        """True when each of the ascending disjoint ranges ``[starts[i],
        ends[i])`` lies inside one run."""
        mine_starts, mine_ends = self.starts, self.ends
        if starts == mine_starts and ends == mine_ends:
            return True
        total = len(mine_starts)
        index = 0
        for start, end in zip(starts, ends):
            while index < total and mine_ends[index] <= start:
                index += 1
            if index == total or mine_starts[index] > start or mine_ends[index] < end:
                return False
        return True

    def gaps_in(self, start: int, end: int) -> List[Tuple[int, int]]:
        """Sub-ranges of ``[start, end)`` *not* covered by any run, in
        ascending order. The complement of residency — what a loader
        still has to read."""
        starts, ends = self.starts, self.ends
        cursor = start
        index = bisect_right(starts, start) - 1
        if index >= 0 and start < ends[index]:
            cursor = ends[index]
        index += 1
        gaps: List[Tuple[int, int]] = []
        n = len(starts)
        while cursor < end and index < n and starts[index] < end:
            if starts[index] > cursor:
                gaps.append((cursor, starts[index]))
            if ends[index] > cursor:
                cursor = ends[index]
            index += 1
        if cursor < end:
            gaps.append((cursor, end))
        return gaps

    def add_range(self, start: int, end: int) -> List[Tuple[int, int]]:
        """Mark ``[start, end)`` resident.

        Returns the sub-ranges that were newly inserted, in ascending
        order — exactly the pages a per-page loop would have inserted,
        so callers can maintain watch logs and counters identically.
        """
        starts, ends = self.starts, self.ends
        # Fast path: a range that overlaps no run — every quoted
        # readahead window (cut at the first resident page), and loaders
        # and sequential scans appending at the tail. One bisect finds
        # its neighbours: it extends the run that ends at ``start``, the
        # one that starts at ``end``, bridges the two, or is a run of
        # its own.
        index = bisect_right(starts, start)
        n = len(starts)
        if (index == 0 or ends[index - 1] <= start) and (
            index == n or end <= starts[index]
        ):
            if index and ends[index - 1] == start:
                if index < n and starts[index] == end:
                    ends[index - 1] = ends[index]
                    del starts[index]
                    del ends[index]
                else:
                    ends[index - 1] = end
            elif index < n and starts[index] == end:
                starts[index] = start
            else:
                starts.insert(index, start)
                ends.insert(index, end)
            self.count += end - start
            return [(start, end)]
        # Runs that overlap or are adjacent to [start, end): the first
        # whose end reaches start, through the last whose start is at
        # most end (end == run.start is adjacency — merge to keep the
        # run list canonical). At least one overlaps.
        low = bisect_left(ends, start)
        high = bisect_right(starts, end) - 1
        gaps: List[Tuple[int, int]] = []
        cursor = start
        for k in range(low, high + 1):
            run_start = starts[k]
            if run_start > cursor:
                gaps.append((cursor, min(run_start, end)))
            if ends[k] > cursor:
                cursor = ends[k]
        if cursor < end:
            gaps.append((cursor, end))
        merged_start = min(start, starts[low])
        merged_end = max(end, ends[high])
        starts[low : high + 1] = [merged_start]
        ends[low : high + 1] = [merged_end]
        self.count += sum(e - s for s, e in gaps)
        return gaps


class Watch:
    """The log of one watched file: ``pages`` newly inserted since the
    watch opened, in insertion order (a page dropped and inserted again
    repeats), the instant each was inserted at (``instants``) and, for
    each drop of the file, ``(instant, len(pages))`` (``drops``)."""

    __slots__ = ("pages", "instants", "drops")

    def __init__(self) -> None:
        self.pages: List[int] = []
        self.instants = array("d")
        self.drops: List[Tuple[float, int]] = []


class PageCache:
    """Host page cache with pending-read tracking."""

    def __init__(self, env: Environment, metrics_root: Optional[str] = None):
        self.env = env
        #: Residency: file name -> interval runs.
        self._runs: Dict[str, _IntervalRuns] = {}
        #: In-flight reads: value is an :class:`Event` once somebody
        #: waits, else :data:`_PENDING_PLACEHOLDER`.
        self._pending: Dict[PageKey, object] = {}
        self.insertions = 0
        #: Open watches: file name -> its :class:`Watch`.
        self.watches: Dict[str, Watch] = {}
        # The cache is the one per-host object every invocation's
        # fault handler reaches (``handler.cache``), so it hosts the
        # per-host instrument bundle that invocation teardown absorbs
        # fault records into.
        registry = getattr(env, "metrics", None)
        if registry is None:
            self.metrics_root = None
            self.telemetry = None
        else:
            root = registry.unique_prefix(metrics_root or "host")
            self.metrics_root = root
            registry.gauge(
                f"{root}.page_cache.resident_pages", lambda: len(self)
            )
            registry.gauge(
                f"{root}.page_cache.pending_reads",
                lambda: len(self._pending),
            )
            registry.pull_counter(
                f"{root}.page_cache.insertions", lambda: self.insertions
            )
            from repro.metrics.telemetry import HostTelemetry

            self.telemetry = HostTelemetry(registry, root)

    def __len__(self) -> int:
        return sum(runs.count for runs in self._runs.values())

    def contains(self, file_name: str, page_index: int) -> bool:
        """True if the page is resident."""
        runs = self._runs.get(file_name)
        return runs is not None and runs.contains(page_index)

    def holds_file(self, file: StoredFile) -> bool:
        """True when no fault on ``file`` needs I/O: every page of a
        dense file is resident, or every page a sparse file holds data
        for (its holes read as zeros without I/O)."""
        runs = self._runs.get(file.name)
        if runs is None:
            return False
        if not file.sparse:
            return runs.covers((0,), (file.num_pages,))
        return runs.count >= len(file.pages) and runs.covers(*file.pages.runs())

    def insert_range(
        self,
        file_name: str,
        start_page: int,
        npages: int,
        at: Optional[float] = None,
    ) -> None:
        """Mark ``npages`` consecutive pages resident; completes any
        pending read on them. A watch logs them as inserted at instant
        ``at`` (default ``env.now``)."""
        end_page = start_page + npages
        # Complete pending reads in the range regardless of residency,
        # in ascending page order (succeed() order feeds the event
        # heap's tie-breaking sequence). Iterate whichever of the
        # pending map and the range is smaller.
        pending_map = self._pending
        if pending_map:
            if len(pending_map) < npages:
                hits = sorted(
                    key
                    for key in pending_map
                    if key[0] == file_name and start_page <= key[1] < end_page
                )
                for key in hits:
                    pending = pending_map.pop(key)
                    if (
                        pending is not _PENDING_PLACEHOLDER
                        and not pending.triggered
                    ):
                        pending.succeed()
            else:
                for page in range(start_page, end_page):
                    pending = pending_map.pop((file_name, page), None)
                    if (
                        pending is not None
                        and pending is not _PENDING_PLACEHOLDER
                        and not pending.triggered
                    ):
                        pending.succeed()
        runs = self._runs.get(file_name)
        if runs is None:
            runs = self._runs[file_name] = _IntervalRuns()
        count = runs.count
        fresh = runs.add_range(start_page, end_page)
        self.insertions += runs.count - count
        watch = self.watches.get(file_name)
        if watch is not None:
            if at is None:
                at = self.env.now
            for gap_start, gap_end in fresh:
                watch.pages.extend(range(gap_start, gap_end))
                watch.instants.extend(repeat(at, gap_end - gap_start))

    def watch(self, file_name: str) -> Watch:
        """Open a watch on ``file_name`` (or join the open one) and
        return its log (:class:`Watch`), which grows until
        :meth:`unwatch`."""
        return self.watches.setdefault(file_name, Watch())

    def unwatch(self, file_name: str) -> None:
        """Close the watch on ``file_name``, if one is open."""
        self.watches.pop(file_name, None)

    def begin_pending(self, file_name: str, page_index: int) -> Event:
        """Announce an in-flight read for the page.

        Returns the completion event; :meth:`insert` fires it. Calling
        this for a page that already has a pending read returns the
        existing event.
        """
        key = (file_name, page_index)
        if self.contains(file_name, page_index):
            raise SimulationError(f"begin_pending on resident page {key}")
        existing = self._pending.get(key)
        if existing is not None and existing is not _PENDING_PLACEHOLDER:
            return existing
        event = Event(self.env)
        self._pending[key] = event
        return event

    def has_pending(self, file_name: str, page_index: int) -> bool:
        """True if an in-flight read covers the page. Unlike
        :meth:`pending_event` this never materializes an event — use
        it for check-only probes."""
        return (file_name, page_index) in self._pending

    def pending_event(self, file_name: str, page_index: int) -> Optional[Event]:
        """The in-flight read event for the page, if any (materialized
        on demand for placeholder entries)."""
        key = (file_name, page_index)
        existing = self._pending.get(key)
        if existing is _PENDING_PLACEHOLDER:
            existing = Event(self.env)
            self._pending[key] = existing
        return existing

    def abandon_pending(self, file_name: str, page_index: int) -> None:
        """Cancel a pending read that failed (fires the event so
        waiters re-check residency and retry)."""
        event = self._pending.pop((file_name, page_index), None)
        if (
            event is not None
            and event is not _PENDING_PLACEHOLDER
            and not event.triggered
        ):
            event.succeed()

    def fill(
        self,
        file: StoredFile,
        start_page: int,
        npages: int,
        runs: Sequence[Tuple[int, int]],
    ) -> Generator[Event, Any, List[Tuple[int, int]]]:
        """Process helper: read ``[start_page, start_page+npages)`` of
        ``file`` into the cache, and return the device ``(offset,
        nbytes)`` extents read (:meth:`StoredFile.extents`).

        The ascending half-open ``runs`` inside the range are the pages
        this read brings in: they are announced as in flight for the
        read's duration, so a fault on one waits for this read instead
        of issuing its own, and are then inserted — or abandoned, waking
        their waiters, if the read fails. Announcing allocates no
        completion event: a fault arriving meanwhile materializes one on
        demand (:meth:`pending_event`), and pages nobody waits on
        complete silently. A page already in flight keeps its entry — a
        materialized event must survive, as a waiter holds it — and a
        failed read leaves it to the reader that announced it."""
        name = file.name
        pending = self._pending
        others = set()
        for run_start, run_end in runs:
            for page in range(run_start, run_end):
                key = (name, page)
                if key in pending:
                    others.add(page)
                else:
                    pending[key] = _PENDING_PLACEHOLDER
        try:
            extents = yield from file.read(start_page, npages)
        except BaseException:
            for run_start, run_end in runs:
                for page in range(run_start, run_end):
                    if page not in others:
                        self.abandon_pending(name, page)
            raise
        for run_start, run_end in runs:
            self.insert_range(name, run_start, run_end - run_start)
        return extents

    def abandon_all_pending(self) -> int:
        """Fire-and-forget every pending read (host crash teardown).

        Waiters wake, re-check residency and reissue their reads, so
        nobody sleeps forever on a read whose owner was interrupted.
        Returns the number of abandoned entries.
        """
        count = len(self._pending)
        if count:
            pending, self._pending = self._pending, {}
            for event in pending.values():
                if event is not _PENDING_PLACEHOLDER and not event.triggered:
                    event.succeed()
        return count

    def missing_ranges(
        self, file_name: str, start_page: int, npages: int
    ) -> List[Tuple[int, int]]:
        """Ascending sub-ranges of ``[start_page, start_page+npages)``
        that are neither resident nor pending — exactly the pages a
        loader chunk still has to read. One interval computation
        replaces the per-page residency and pending probe loop on the
        restore hot path."""
        end_page = start_page + npages
        runs = self._runs.get(file_name)
        if runs is None:
            gaps = [(start_page, end_page)]
        else:
            gaps = runs.gaps_in(start_page, end_page)
        pending = self._pending
        if not pending or not gaps:
            return gaps
        out: List[Tuple[int, int]] = []
        for gap_start, gap_end in gaps:
            run_start = None
            for page in range(gap_start, gap_end):
                if (file_name, page) in pending:
                    if run_start is not None:
                        out.append((run_start, page))
                        run_start = None
                elif run_start is None:
                    run_start = page
            if run_start is not None:
                out.append((run_start, gap_end))
        return out

    def first_cached_or_pending(
        self, file_name: str, start_page: int, end_page: int
    ) -> int:
        """The first page of ``[start_page, end_page)`` that is resident
        or in flight, or ``end_page`` when there is none — where a
        readahead window stops."""
        runs = self._runs.get(file_name)
        if runs is not None:
            starts = runs.starts
            index = bisect_right(starts, start_page)
            if index and start_page < runs.ends[index - 1]:
                return start_page
            if index < len(starts) and starts[index] < end_page:
                end_page = starts[index]
        return self.first_pending(file_name, start_page, end_page)

    def first_pending(self, file_name: str, start_page: int, end_page: int) -> int:
        """The first page of ``[start_page, end_page)`` that is in
        flight, or ``end_page`` when there is none."""
        pending = self._pending
        if pending:
            for page in range(start_page, end_page):
                if (file_name, page) in pending:
                    return page
        return end_page

    def drop_file(self, file_name: str) -> int:
        """Evict every resident page of ``file_name`` (drop_caches for
        one file, as the paper does between test runs, §6.1).
        Pending reads are unaffected."""
        watch = self.watches.get(file_name)
        if watch is not None:
            watch.drops.append((self.env.now, len(watch.pages)))
        runs = self._runs.pop(file_name, None)
        return runs.count if runs is not None else 0

    def drop_all(self) -> int:
        """Evict everything (echo 3 > /proc/sys/vm/drop_caches)."""
        for watch in self.watches.values():
            watch.drops.append((self.env.now, len(watch.pages)))
        count = len(self)
        self._runs.clear()
        return count

    def count_for_file(self, file_name: str) -> int:
        runs = self._runs.get(file_name)
        return runs.count if runs is not None else 0

    def resident_set(self) -> Set[PageKey]:
        """Snapshot of all resident pages (for assertions)."""
        return {
            (name, page)
            for name, runs in self._runs.items()
            for start, end in zip(runs.starts, runs.ends)
            for page in range(start, end)
        }

    def warm_file(self, file_name: str, pages: PageMap) -> None:
        """Instantly mark the pages of ``pages`` resident without I/O —
        used only to construct the paper's impractical-but-useful
        *Cached* baseline (§3.1). One range insertion per data run."""
        for start, end in zip(*pages.runs()):
            self.insert_range(file_name, start, end - start)
