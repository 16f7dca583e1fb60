"""Unit tests for the REAP baseline pieces and the mincore recorder."""

import pytest

from repro.core.reap import (
    make_reap_fault_handler,
    reap_setup,
    write_working_set_file,
)
from repro.core.recorder import mincore_recorder
from repro.core.working_set import ReapWorkingSet
from repro.host import HostParams, PageCache, Procfs
from repro.host.fault import ANON_CODE, FaultStats
from repro.sim import Environment, SimulationError
from repro.storage import BlockDevice, DeviceSpec, FileStore
from repro.vm import MicroVM, VmmParams, create_snapshot

HOST = HostParams()


class Rig:
    def __init__(self):
        self.env = Environment()
        self.device = BlockDevice(
            self.env, DeviceSpec("d", 100, 10, 1589, 285_000, queue_depth=16)
        )
        self.store = FileStore(self.env, self.device)
        self.cache = PageCache(self.env)

    def run(self, gen):
        return self.env.run(until=self.env.process(gen))


def test_ws_file_layout_follows_fault_order():
    rig = Rig()
    snapshot = create_snapshot(rig.store, "fn", 100, {3: 33, 7: 77, 9: 0})
    ws = ReapWorkingSet(pages_in_fault_order=[7, 3, 9])
    f = write_working_set_file(rig.store, "fn.ws", ws, snapshot)
    assert f.num_pages == 3
    assert f.page_value(0) == 77  # first-faulted page first
    assert f.page_value(1) == 33
    assert f.page_value(2) == 0


def test_reap_setup_installs_ptes_and_reads_sequentially():
    rig = Rig()
    contents = {i: i + 1 for i in range(512)}
    snapshot = create_snapshot(rig.store, "fn", 4096, contents)
    ws = ReapWorkingSet(pages_in_fault_order=list(range(512)))
    ws_file = write_working_set_file(rig.store, "fn.ws", ws, snapshot)
    vm = MicroVM(rig.env, HOST, VmmParams(), rig.cache, 4096, use_uffd=True)

    elapsed = rig.run(
        reap_setup(rig.env, HOST, vm, ws, ws_file, snapshot)
    )
    assert elapsed > 0
    assert vm.space.rss_pages() == 512
    assert vm.space.pte[10] == 11
    # Bypasses the page cache entirely.
    assert len(rig.cache) == 0
    # Sequential whole-file read: 2 chunks of 256 pages.
    assert rig.device.stats.requests == 2
    assert rig.device.stats.sequential_requests == 1
    # Install cost is part of the blocking setup.
    assert elapsed >= 512 * HOST.uffd_copy_us


def test_reap_setup_installs_in_fault_order_with_holes_as_zero():
    rig = Rig()
    snapshot = create_snapshot(rig.store, "fn", 1024, {3: 33, 700: 77})
    order = [700, 5, 3] + list(range(10, 300))
    ws = ReapWorkingSet(pages_in_fault_order=order)
    ws_file = write_working_set_file(rig.store, "fn.ws", ws, snapshot)
    vm = MicroVM(rig.env, HOST, VmmParams(), rig.cache, 1024, use_uffd=True)
    vm.space.pte[5] = 55
    rig.run(reap_setup(rig.env, HOST, vm, ws, ws_file, snapshot))
    # An entry already present keeps its place and takes the file's
    # contents; new entries follow in fault order.
    assert list(vm.space.pte) == [5, 700, 3] + list(range(10, 300))
    assert vm.space.pte[700] == 77 and vm.space.pte[3] == 33
    assert vm.space.pte[5] == 0 and vm.space.pte[10] == 0


def test_reap_setup_rejects_a_page_outside_the_snapshot():
    rig = Rig()
    snapshot = create_snapshot(rig.store, "fn", 64, {3: 33})
    ws = ReapWorkingSet(pages_in_fault_order=[3, 64])
    ws_file = write_working_set_file(
        rig.store, "fn.ws", ReapWorkingSet([3, 4]), snapshot
    )
    vm = MicroVM(rig.env, HOST, VmmParams(), rig.cache, 128, use_uffd=True)
    with pytest.raises(SimulationError, match="out of range"):
        rig.run(reap_setup(rig.env, HOST, vm, ws, ws_file, snapshot))


def test_reap_handler_serves_hole_cached_and_disk():
    rig = Rig()
    snapshot = create_snapshot(rig.store, "fn", 256, {10: 100, 20: 200})
    handler = make_reap_fault_handler(rig.env, HOST, rig.cache, snapshot)
    name = snapshot.memory_file.name

    hole, _, hole_read = handler(5, 0.0)
    rig.cache.insert(name, 10)
    cached, t_cached, cached_read = handler(10, 0.0)
    disk, t_disk, disk_read = handler(20, 0.0)
    assert (hole, cached, disk) == (0, 100, 200)
    assert hole_read is None and cached_read is None
    assert t_disk > t_cached  # disk path pays the device read
    # Handler reads go through the page cache with readahead.
    assert not rig.cache.contains(name, 20)
    disk_read.commit(rig.cache)
    assert rig.cache.contains(name, 20)


def test_reap_handler_queues_behind_a_busy_device():
    rig = Rig()
    snapshot = create_snapshot(rig.store, "fn", 256, {10: 100, 20: 200})
    handler = make_reap_fault_handler(rig.env, HOST, rig.cache, snapshot)
    name = snapshot.memory_file.name
    other = rig.store.create("other", 64, pages={i: 1 for i in range(64)})

    def scenario():
        rig.env.process(other.read(0, 64))
        # Past the other read's seek: it holds the bandwidth channel.
        yield rig.env.timeout(150)
        leg = handler(20, rig.env.now)
        assert not isinstance(leg, tuple)  # the read would queue
        value, read = yield from leg
        return value, read

    value, read = rig.run(scenario())
    assert value == 200
    assert read.requests == 1
    assert rig.cache.contains(name, 20)


def test_mincore_recorder_groups_by_scan_order():
    rig = Rig()
    from repro.host.vma import AddressSpace

    space = AddressSpace(10_000)
    procfs = Procfs(rig.env, HOST, space)
    faults = FaultStats()
    rig.cache.watch("mem")

    def install(page):
        rig.cache.insert("mem", page)
        space.install_pte(page, 1)
        faults.log(ANON_CODE, page, rig.env.now, 0.0)

    def guest():
        # Make 1500 pages resident in two waves; RSS mirrors that.
        for page in range(1500):
            install(page)
            if page % 100 == 0:
                yield rig.env.timeout(300)
        yield rig.env.timeout(2_000)
        for page in range(4000, 5500):
            install(page)
            if page % 100 == 0:
                yield rig.env.timeout(300)
        yield rig.env.timeout(500)
        return (
            yield from mincore_recorder(
                rig.env,
                HOST,
                rig.cache,
                procfs,
                "mem",
                10_000,
                0.0,
                faults,
                group_pages=1024,
                poll_interval_us=100,
            )
        )

    ws = rig.run(guest())
    assert len(ws) == 3000
    # Pages of the first wave are in earlier groups than the second.
    assert ws.group(0) < ws.group(4100)
    assert ws.num_groups >= 2
    # Group sizes respect the 1024 cap.
    for group in range(1, ws.num_groups + 1):
        assert len(ws.pages_of_group(group)) <= 1024


def test_mincore_recorder_final_sweep_catches_tail():
    rig = Rig()
    from repro.host.vma import AddressSpace

    space = AddressSpace(1000)
    procfs = Procfs(rig.env, HOST, space)
    faults = FaultStats()
    rig.cache.watch("mem")

    def guest():
        yield rig.env.timeout(50)
        # Fewer than group_pages pages: no RSS-triggered scan fires.
        for page in range(10):
            rig.cache.insert("mem", page)
            space.install_pte(page, 1)
            faults.log(ANON_CODE, page, rig.env.now, 0.0)
        return (
            yield from mincore_recorder(
                rig.env, HOST, rig.cache, procfs, "mem", 1000, 0.0, faults
            )
        )

    ws = rig.run(guest())
    assert len(ws) == 10
    assert ws.num_groups == 1
