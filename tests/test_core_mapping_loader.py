"""Unit tests for per-region mapping plans and the daemon loader."""

import pytest

from repro.core.loading_set import build_loading_set, write_loading_set_file
from repro.core.loader import (
    LoaderStats,
    coalesce_ordered_pages,
    file_chunks,
    ordered_pages_loader,
)
from repro.core.mapping import build_faasnap_plan, nonzero_regions
from repro.core.working_set import WorkingSetGroups
from repro.host import ANONYMOUS, AddressSpace, FileBacking, PageCache
from repro.sim import Environment
from repro.storage import BlockDevice, DeviceSpec, FileStore, PageMap
from repro.vm import MicroVM, VmmParams, create_snapshot
from repro.host.params import HostParams


# -- nonzero region coalescing -----------------------------------------


def _map(pages):
    return PageMap({page: 1 for page in pages})


def test_nonzero_regions_exact_runs():
    regions = nonzero_regions(_map([11, 0, 1, 2, 10]), merge_gap=0)
    assert regions == [(0, 3), (10, 2)]


def test_nonzero_regions_merge_small_gaps():
    assert nonzero_regions(_map([0, 1, 5, 6]), merge_gap=4) == [(0, 7)]
    assert nonzero_regions(_map([0, 1, 5, 6]), merge_gap=2) == [(0, 2), (5, 2)]


def test_nonzero_regions_empty():
    assert nonzero_regions(PageMap()) == []


# -- plan construction ----------------------------------------------------


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


def test_faasnap_plan_layers():
    rig = Rig()
    snapshot = create_snapshot(
        rig.store, "fn", 1000, {10: 1, 11: 2, 500: 5, 501: 6}
    )
    ws = WorkingSetGroups(group_of={10: 1, 11: 1})
    ls = build_loading_set(ws, snapshot.memory_file.pages, merge_gap=0)
    lf = write_loading_set_file(rig.store, "fn.ls", ls, snapshot)
    plan = build_faasnap_plan(snapshot, ls, lf, nonzero_merge_gap=0)
    # anonymous base + 2 nonzero regions + 1 loading region
    assert len(plan) == 4
    assert plan.directives[0].is_anonymous
    assert plan.directives[0].npages == 1000

    vm = MicroVM(
        rig.env, HostParams(), VmmParams(), rig.cache, 1000
    )
    rig.run(vm.apply_plan(plan))
    # Table 1 mapping: loading set -> loading file; cold set -> memory
    # file; everything else anonymous.
    assert vm.space.resolve(10).backing.file is lf
    assert vm.space.resolve(500).backing.file is snapshot.memory_file
    assert vm.space.resolve(0).backing is ANONYMOUS
    assert vm.space.resolve(999).backing is ANONYMOUS
    assert vm.space.coverage_gaps() == []


def test_faasnap_plan_without_loading_set_is_per_region_ablation():
    rig = Rig()
    snapshot = create_snapshot(rig.store, "fn", 100, {10: 1})
    plan = build_faasnap_plan(snapshot)
    assert len(plan) == 2


def test_faasnap_plan_rejects_half_loading_args():
    rig = Rig()
    snapshot = create_snapshot(rig.store, "fn", 100, {10: 1})
    ws = WorkingSetGroups(group_of={10: 1})
    ls = build_loading_set(ws, [10])
    with pytest.raises(ValueError):
        build_faasnap_plan(snapshot, loading_set=ls, loading_file=None)


def test_plan_memory_integrity():
    """Every guest page observes the snapshot's value through the
    layered mapping."""
    rig = Rig()
    contents = {i: 100 + i for i in list(range(5, 15)) + list(range(40, 44))}
    snapshot = create_snapshot(rig.store, "fn", 64, contents)
    ws = WorkingSetGroups(group_of={5: 1, 6: 1, 41: 2})
    ls = build_loading_set(ws, snapshot.memory_file.pages, merge_gap=2)
    lf = write_loading_set_file(rig.store, "fn.ls", ls, snapshot)
    plan = build_faasnap_plan(snapshot, ls, lf, nonzero_merge_gap=4)
    vm = MicroVM(rig.env, HostParams(), VmmParams(), rig.cache, 64)
    rig.run(vm.apply_plan(plan))
    for page in range(64):
        assert vm.space.backing_value(page) == contents.get(page, 0), page


# -- loader ----------------------------------------------------------------


def test_coalesce_ascending_pages_merges():
    units = coalesce_ordered_pages([0, 1, 2, 3], coalesce_gap=0)
    assert units == [(0, 4)]


def test_coalesce_respects_gap_and_chunk():
    units = coalesce_ordered_pages([0, 5, 100], coalesce_gap=8, chunk_pages=64)
    assert units == [(0, 6), (100, 1)]
    units = coalesce_ordered_pages(
        list(range(100)), coalesce_gap=0, chunk_pages=32
    )
    assert units == [(0, 32), (32, 32), (64, 32), (96, 4)]


def test_coalesce_out_of_order_splits():
    units = coalesce_ordered_pages([10, 11, 5, 6], coalesce_gap=8)
    assert units == [(10, 2), (5, 2)]


def test_coalesce_skips_pages_already_covered():
    units = coalesce_ordered_pages([0, 3, 2], coalesce_gap=4)
    assert units == [(0, 4)]


def test_file_chunks_cover_the_file_in_order():
    assert file_chunks(200, chunk_pages=64) == [
        (0, 64), (64, 64), (128, 64), (192, 8)
    ]
    assert file_chunks(128, chunk_pages=64) == [(0, 64), (64, 64)]
    assert file_chunks(0) == []


def test_loading_set_loader_populates_cache_sequentially():
    rig = Rig()
    lf = rig.store.create("ls", 256, pages={i: i + 1 for i in range(256)})
    stats = LoaderStats()
    rig.run(
        ordered_pages_loader(
            rig.env, rig.cache, lf, file_chunks(256, chunk_pages=64), stats
        )
    )
    assert rig.cache.count_for_file("ls") == 256
    assert stats.pages_fetched == 256
    assert stats.bytes_read == 256 * 4096
    assert stats.fetch_time_us > 0
    # 4 chunks, 3 of them sequential continuations.
    assert rig.device.stats.requests == 4
    assert rig.device.stats.sequential_requests == 3


def test_loader_skips_resident_pages():
    rig = Rig()
    lf = rig.store.create("ls", 64, pages={i: 1 for i in range(64)})
    rig.cache.insert_range("ls", 0, 64)
    stats = LoaderStats()
    rig.run(
        ordered_pages_loader(rig.env, rig.cache, lf, file_chunks(64), stats)
    )
    assert stats.pages_fetched == 0
    assert rig.device.stats.requests == 0


def test_guest_fault_waits_on_loader_pending_read():
    rig = Rig()
    lf = rig.store.create("ls", 64, pages={i: 1 for i in range(64)})
    stats = LoaderStats()
    waited = []

    def guest():
        # Fault while the loader's first chunk is in flight.
        yield rig.env.timeout(1.0)
        pending = rig.cache.pending_event("ls", 10)
        assert pending is not None
        yield pending
        waited.append(rig.env.now)

    rig.env.process(
        ordered_pages_loader(
            rig.env, rig.cache, lf, file_chunks(64, chunk_pages=64), stats
        )
    )
    rig.env.process(guest())
    rig.env.run()
    assert waited and waited[0] > 1.0


def test_ordered_pages_loader_address_vs_scattered_order():
    """Address-ordered loading is faster on disk than group-scattered
    loading of the same pages — the tradeoff behind working-set
    groups (paper §4.3 / §6.5)."""
    pages = [i * 4 for i in range(512)]  # every 4th page

    def run_loader(order):
        rig = Rig()
        mem = rig.store.create(
            "mem", 4096, pages={p: 1 for p in pages}
        )
        stats = LoaderStats()
        rig.run(
            ordered_pages_loader(
                rig.env,
                rig.cache,
                mem,
                coalesce_ordered_pages(order, coalesce_gap=8),
                stats,
            )
        )
        return stats.fetch_time_us

    ascending = run_loader(sorted(pages))
    import random

    shuffled = list(pages)
    random.Random(7).shuffle(shuffled)
    scattered = run_loader(shuffled)
    assert ascending < scattered
