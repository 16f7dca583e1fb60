"""The record-phase recorder: host page recording via mincore.

Paper §4.4 and §5: during the record invocation the FaaSnap daemon
polls procfs for the guest's RSS; once at least 1024 new pages are
resident it calls ``mincore`` on the mapped memory file to pick up the
pages that appeared since the last scan — including pages the kernel's
readahead brought in that the guest never faulted on. Each scan's
pages extend the working set in scan order, which is what defines the
working-set groups (§4.3).

The recorder runs as a simulation process concurrent with the guest
vCPU, exactly like the daemon thread it models.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional

from repro.host.page_cache import PageCache
from repro.host.params import HostParams
from repro.host.procfs import Procfs
from repro.sim import Environment, Event
from repro.vm.vcpu import ObservationHorizon
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
    done: Event,
    group_pages: int = DEFAULT_GROUP_PAGES,
    poll_interval_us: float = DEFAULT_POLL_INTERVAL_US,
    horizon: Optional[ObservationHorizon] = None,
) -> Generator[Event, Any, WorkingSetGroups]:
    """Process helper: record the working set of one invocation.

    Runs until ``done`` fires, then performs a final sweep so pages
    resident at invocation end are never lost. Returns the grouped
    working set.

    Cost model: each RSS poll charges the procfs read; each mincore
    scan charges the full present-bit scan of the mapping (base +
    per-page), even though the simulation diffs incrementally: it
    reads the page cache's watch on ``memory_file_name`` (joining the
    one the caller opened before the VM ran, else opening it), whose
    log holds every page inserted since the watch opened. Closing the
    watch is the caller's job.

    ``horizon`` lets the recorded VM's vCPU batch its fault fast path
    without ever being observed mid-batch: before each sleep this
    process publishes the instant of its *next* read of shared state
    (the RSS count, the watch log), and the batching vCPU flushes
    rather than install a page at or past that instant.
    """

    def publish(next_read_at: float) -> None:
        if horizon is not None:
            horizon.next_at = next_read_at

    log = cache.watch(memory_file_name)
    batches: List[List[int]] = []
    cursor = 0
    seen: set = set()
    rss_at_last_scan = 0

    def scan() -> Generator[Event, Any, None]:
        nonlocal cursor
        # Charge the real mincore cost for scanning the whole mapping.
        scan_cost = (
            params.mincore_base_us + params.mincore_per_page_us * num_pages
        )
        publish(env.now + scan_cost)
        yield env.timeout(scan_cost)
        fresh: List[int] = []
        for page in log[cursor:]:
            if page not in seen and cache.contains(memory_file_name, page):
                seen.add(page)
                fresh.append(page)
        cursor = len(log)
        if fresh:
            batches.append(fresh)

    while not done.triggered:
        # procfs.rss_pages charges its poll cost, then reads the RSS.
        publish(env.now + params.procfs_poll_us)
        rss = yield from procfs.rss_pages()
        if rss - rss_at_last_scan >= group_pages:
            yield from scan()
            rss_at_last_scan = rss
        if done.triggered:
            break
        publish(env.now + poll_interval_us + params.procfs_poll_us)
        yield env.timeout(poll_interval_us)

    publish(float("inf"))
    yield from scan()
    return WorkingSetGroups.from_batches(batches, group_pages=group_pages)
