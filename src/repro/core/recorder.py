"""The record-phase recorder: host page recording via mincore.

Paper §4.4 and §5: during the record invocation the FaaSnap daemon
polls procfs for the guest's RSS; once at least 1024 new pages are
resident it calls ``mincore`` on the mapped memory file to pick up the
pages that appeared since the last scan — including pages the kernel's
readahead brought in that the guest never faulted on. Each scan's
pages extend the working set in scan order, which is what defines the
working-set groups (§4.3).

The daemon only reads state the recorded VM changes, so the recorder
replays it once the invocation is done, from two time-stamped logs:
the VM's fault log (the RSS) and the page cache's watch on the memory
file (the scans). Nothing of it is on the event heap while the VM
runs.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import islice
from typing import Any, Generator, List

from repro.host.fault import FaultStats
from repro.host.page_cache import PageCache
from repro.host.params import HostParams
from repro.host.procfs import Procfs
from repro.sim import Environment, Event
from repro.core.working_set import DEFAULT_GROUP_PAGES, WorkingSetGroups

#: How often the daemon polls procfs, microseconds. The paper does
#: not give a number; sub-millisecond polling is cheap for a daemon
#: thread and fine-grained enough to keep groups near 1024 pages.
DEFAULT_POLL_INTERVAL_US = 200.0


def mincore_recorder(
    env: Environment,
    params: HostParams,
    cache: PageCache,
    procfs: Procfs,
    memory_file_name: str,
    num_pages: int,
    started: float,
    faults: FaultStats,
    group_pages: int = DEFAULT_GROUP_PAGES,
    poll_interval_us: float = DEFAULT_POLL_INTERVAL_US,
) -> Generator[Event, Any, WorkingSetGroups]:
    """Process helper, called when the recorded invocation is done:
    record its working set, and return it when the daemon would have.

    From ``started`` the daemon polls procfs for the RSS (charging the
    procfs read); when the RSS has grown by ``group_pages`` since its
    last scan it scans the mapping (charging the full present-bit
    scan, base + per-page); then it sleeps ``poll_interval_us``. Once
    the invocation is done it makes a final sweep, so pages resident
    at invocation end are never lost. The replay walks that schedule
    with the same float additions. A poll reads the RSS procfs reports
    now less the PTE installs ``faults`` (the VM's fault log) logged
    at or after the read. A scan reads the pages the page cache's
    watch on ``memory_file_name`` (opened by the caller before the VM
    ran, closed after) logged since the previous scan that are still
    resident and not seen before.

    Ties: an install, insertion or drop at exactly a read's instant is
    not seen by that read, and the invocation ending at exactly an
    instant the daemon wakes is seen then.
    """
    watch = cache.watch(memory_file_name)
    now = started
    finished = env.now
    installs = sorted(faults.install_instants())
    base_rss = procfs.space.rss_pages() - len(installs)

    # The daemon's schedule: the instant each scan reads the watch.
    scan_cost = (
        params.mincore_base_us + params.mincore_per_page_us * num_pages
    )
    scans: List[float] = []
    rss_at_last_scan = 0
    while finished > now:
        now += params.procfs_poll_us
        procfs.polls += 1
        rss = base_rss + bisect_left(installs, now)
        if rss - rss_at_last_scan >= group_pages:
            now += scan_cost
            scans.append(now)
            rss_at_last_scan = rss
        if finished <= now:
            break
        now += poll_interval_us
    now += scan_cost
    scans.append(now)
    yield env.wake_at(now)

    pages = watch.pages
    instants = watch.instants
    batches: List[List[int]] = []
    seen: set = set()
    cursor = 0
    for at in scans:
        stop = bisect_left(instants, at, cursor)
        # A page logged before the last drop the scan sees is resident
        # only if logged again after it.
        drops = [logged for instant, logged in watch.drops if instant < at]
        resident = set(pages[drops[-1] : stop]) if drops else None
        fresh: List[int] = []
        for page in islice(pages, cursor, stop):
            if page not in seen and (resident is None or page in resident):
                seen.add(page)
                fresh.append(page)
        cursor = stop
        if fresh:
            batches.append(fresh)
    return WorkingSetGroups.from_batches(batches, group_pages=group_pages)
