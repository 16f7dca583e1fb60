"""A fault's I/O columns count only the reads the fault itself issued.

A MAJOR or UFFD row records the block requests and bytes of its own
readahead read. Another reader of the same device (a FaaSnap loader,
a second VM, REAP's working-set fetch) may complete requests while the
fault waits; those belong to that reader, not to the fault. The same
holds the other way round: a loader's fetch columns count only its
own chunk reads, not a fault that completed while a chunk was in
flight.
"""

from repro.core.loader import LoaderStats, ordered_pages_loader
from repro.core.reap import make_reap_fault_handler
from repro.host import (
    AddressSpace,
    FaultHandler,
    FaultKind,
    HostParams,
    PageCache,
    UserfaultfdManager,
)
from repro.sim import Environment
from repro.storage import BlockDevice, DeviceSpec, FileStore
from repro.storage.filestore import PAGE_SIZE
from repro.vm import create_snapshot
from repro.vm.vcpu import GuestAccess, VCpu

PARAMS = HostParams()
NUM_PAGES = 256
#: Pages the second reader streams: large enough that its request
#: completes while the fault's read still waits for the channel.
OTHER_PAGES = 64
#: One readahead window: the fault's own read.
OWN_WINDOW_BYTES = PARAMS.readahead_pages * PAGE_SIZE


def _rig():
    env = Environment()
    device = BlockDevice(
        env, DeviceSpec("d", 100.0, 10.0, 1000.0, 1e6, queue_depth=8)
    )
    store = FileStore(env, device)
    other = store.create(
        "other", OTHER_PAGES, pages={i: i + 1 for i in range(OTHER_PAGES)}
    )
    return env, device, store, PageCache(env), other


def _run(env, vcpu_or_handler, other, page, batch):
    """Fault ``page`` while a second process reads all of ``other``."""
    records = []

    def second_reader():
        yield from other.read(0, OTHER_PAGES)

    def guest():
        if batch:
            result = yield from vcpu_or_handler.run_trace([GuestAccess(page)])
            log = vcpu_or_handler.handler.stats
            records.extend(log.records[result.first_row :])
        else:
            record = yield from vcpu_or_handler.access(page)
            records.append(record)

    env.process(second_reader())
    env.process(guest())
    env.run()
    return records


def test_contended_major_fault_counts_only_its_own_read():
    for batch in (False, True):
        env, device, store, cache, other = _rig()
        mem = store.create(
            "mem", NUM_PAGES, pages={i: i + 1 for i in range(NUM_PAGES)}
        )
        space = AddressSpace(NUM_PAGES)
        space.mmap_file(0, NUM_PAGES, mem, 0)
        handler = FaultHandler(env, PARAMS, cache, space)
        target = VCpu(env, handler) if batch else handler
        (record,) = _run(env, target, other, 10, batch)
        assert record.kind is FaultKind.MAJOR
        # The second reader's request completed during the fault...
        assert device.stats.requests == 2
        assert device.stats.bytes_read == (
            OTHER_PAGES * PAGE_SIZE + OWN_WINDOW_BYTES
        )
        # ...but the row carries only the fault's own window read.
        assert record.block_requests == 1
        assert record.bytes_read == OWN_WINDOW_BYTES
        assert handler.stats.total_bytes_read() == OWN_WINDOW_BYTES


def test_reap_out_of_working_set_fault_counts_only_its_own_read():
    for batch in (False, True):
        env, device, store, cache, other = _rig()
        snapshot = create_snapshot(
            store, "fn", NUM_PAGES, {i: i + 1 for i in range(NUM_PAGES)}
        )
        space = AddressSpace(NUM_PAGES)
        space.mmap_anonymous(0, NUM_PAGES)
        uffd = UserfaultfdManager(env, PARAMS)
        uffd.register(
            0,
            NUM_PAGES,
            make_reap_fault_handler(env, PARAMS, cache, snapshot),
        )
        handler = FaultHandler(env, PARAMS, cache, space, uffd=uffd)
        target = VCpu(env, handler) if batch else handler
        (record,) = _run(env, target, other, 10, batch)
        assert record.kind is FaultKind.UFFD
        assert device.stats.requests == 2
        # The handler's pread pulled one readahead window through the
        # page cache; the concurrent stream is not the fault's I/O.
        assert record.block_requests == 1
        assert record.bytes_read == OWN_WINDOW_BYTES
        assert space.pte[10] == snapshot.page_value(10)


def test_loader_counts_only_its_own_chunk_reads():
    # The loader streams pages [128, 192) of the memory file as one
    # chunk. While it waits for the device, the guest faults on page
    # 192: a sequential read (the device's cursor ends where the
    # chunk does) that completes first. The batched vCPU prices and
    # commits that fault on the fast path, before the chunk's next
    # event; the per-access vCPU runs it on the event heap.
    chunk = (128, OTHER_PAGES)
    rows = []
    for batch in (False, True):
        env, device, store, cache, _ = _rig()
        mem = store.create(
            "mem", NUM_PAGES, pages={i: i + 1 for i in range(NUM_PAGES)}
        )
        space = AddressSpace(NUM_PAGES)
        space.mmap_file(0, NUM_PAGES, mem, 0)
        handler = FaultHandler(env, PARAMS, cache, space)
        stats = LoaderStats()
        loader = env.process(
            ordered_pages_loader(env, cache, mem, [chunk], stats)
        )
        vcpu = VCpu(env, handler, batch_faults=batch)
        result = env.run(
            until=env.process(
                vcpu.run_trace([GuestAccess(192, think_us=1.0)])
            )
        )
        env.run()
        (record,) = handler.stats.records[result.first_row :]
        assert record.kind is FaultKind.MAJOR
        assert record.start_us + record.duration_us < stats.finished_us
        rows.append((record.start_us, record.duration_us, stats.finished_us))
        # The fault's read completed while the chunk was in flight...
        assert device.stats.requests == 2
        assert not loader.is_alive
        # ...but the loader carries only its own chunk's extents.
        own = mem.extents(*chunk)
        assert stats.requests == len(own) == 1
        assert stats.bytes_read == sum(n for _, n in own)
        assert stats.pages_fetched == OTHER_PAGES
    assert rows[0] == rows[1]
