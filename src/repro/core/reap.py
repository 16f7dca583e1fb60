"""The REAP baseline (Ustiugov et al., ASPLOS '21; paper §2.5, §3).

REAP records the guest pages that fault during the first invocation
into a compact working-set file. On subsequent invocations it:

1. maps guest memory anonymously and registers it with userfaultfd;
2. *before the function runs*, reads the entire working-set file in
   one sequential pass — bypassing the page cache — and installs
   every page into the host page table with ``UFFDIO_COPY``;
3. serves any fault outside the working set in user space: the
   handler preads the page from the original memory file (through
   the page cache, with readahead) and installs it, with wake-up and
   context-switch overheads on every such fault.

Step 2 is the "long initial loading step that blocks the invocation"
FaaSnap's concurrent paging removes (§4.2); step 3 is why REAP
degrades when the input changes (§6.3).

Step 3's handler is one function for both fault paths: asked at the
instant its thread wakes, it prices a hole, a cached copy or an
uncontended readahead read at once, and only when the page is already
in flight or the device would queue the read does it answer with the
leg that waits on the event heap.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Generator

from repro.core.working_set import ReapWorkingSet
from repro.host.page_cache import PageCache
from repro.host.params import HostParams
from repro.host.readahead import ReadaheadPolicy
from repro.host.uffd import UffdHandler
from repro.sim import Environment, Event
from repro.storage.filestore import FileStore, StoredFile
from repro.vm.snapshot import Snapshot
from repro.vm.vmm import MicroVM

#: Pages per sequential read while loading the working-set file.
_WS_READ_CHUNK_PAGES = 256

#: User-space pread of an already-cached page (copy + syscall).
_CACHED_PREAD_US = 2.0


def write_working_set_file(
    store: FileStore, name: str, working_set: ReapWorkingSet, snapshot: Snapshot
) -> StoredFile:
    """Write REAP's compact working-set file.

    File page ``i`` holds the contents of the ``i``-th faulted guest
    page; a single sequential read fetches everything.
    """
    pages = {
        index: snapshot.page_value(guest_page)
        for index, guest_page in enumerate(working_set.pages_in_fault_order)
    }
    return store.create(
        name, max(len(working_set), 1), pages=pages, sparse=False
    )


def reap_setup(
    env: Environment,
    params: HostParams,
    vm: MicroVM,
    working_set: ReapWorkingSet,
    ws_file: StoredFile,
    snapshot: Snapshot,
) -> Generator[Event, Any, float]:
    """Process helper: REAP's blocking working-set installation.

    Reads the working-set file sequentially (bypassing the page
    cache, as REAP does to maximise read bandwidth — §6.6) and
    installs every page with ``UFFDIO_COPY``. Returns the elapsed
    time; the guest has not run a single instruction meanwhile.
    """
    start = env.now
    total = len(working_set)
    memory_file = snapshot.memory_file
    pte = vm.space.pte
    order = working_set.pages_in_fault_order
    for offset in range(0, total, _WS_READ_CHUNK_PAGES):
        npages = min(_WS_READ_CHUNK_PAGES, total - offset)
        yield from ws_file.read(offset, npages)
        yield env.timeout(params.uffd_copy_us * npages)
        chunk = order[offset : offset + npages]
        memory_file.check_pages(chunk)
        contents = memory_file.pages.get
        pte.update(zip(chunk, map(contents, chunk, repeat(0))))
    return env.now - start


def make_reap_fault_handler(
    env: Environment,
    params: HostParams,
    cache: PageCache,
    snapshot: Snapshot,
) -> UffdHandler:
    """User-space handler for faults outside the working set.

    preads the page from the original memory file: zeros for holes,
    a copy from the page cache when resident, otherwise a disk read
    that goes through the cache with readahead (matching the paper's
    observation that out-of-WS handling is 8-64 us when prefetched
    and >128 us when not, §3.3). It answers at once (see
    :data:`repro.host.uffd.UffdHandler`) unless the page is already
    in flight or the device would queue the read: then its answer is
    the leg that waits.
    """
    memory_file = snapshot.memory_file
    name = memory_file.name
    readahead = ReadaheadPolicy(params)

    def wait_for_read(page: int) -> Generator[Event, Any, tuple]:
        yield cache.pending_event(name, page)
        yield env.timeout(_CACHED_PREAD_US)
        return memory_file.page_value(page), None

    def queued_read(page: int) -> Generator[Event, Any, tuple]:
        read = yield from readahead.fault_read(memory_file, cache, page)
        return memory_file.page_value(page), read

    def handler(page: int, now: float) -> Any:
        if memory_file.is_hole(page):
            return 0, now + _CACHED_PREAD_US, None
        if cache.contains(name, page):
            return memory_file.page_value(page), now + _CACHED_PREAD_US, None
        if cache.has_pending(name, page):
            return wait_for_read(page)
        read = readahead.quote(memory_file, cache, page, now)
        if read is None:
            return queued_read(page)
        return memory_file.page_value(page), read.end, read

    return handler
