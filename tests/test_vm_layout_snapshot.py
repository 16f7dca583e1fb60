"""Unit tests for guest layout and snapshot artefacts."""

import pytest

from repro.host import AddressSpace
from repro.sim import Environment
from repro.storage import BlockDevice, DeviceSpec, FileStore
from repro.vm import GuestLayout, capture_memory_contents, create_snapshot
from repro.vm.layout import DEFAULT_GUEST_PAGES
from repro.vm.snapshot import VMSTATE_PAGES


@pytest.fixture
def store():
    env = Environment()
    device = BlockDevice(
        env, DeviceSpec("d", 100.0, 10.0, 1000.0, 1e6, queue_depth=4)
    )
    return FileStore(env, device)


# -- layout -----------------------------------------------------------


def test_default_layout_is_2gb():
    layout = GuestLayout()
    assert layout.total_pages == DEFAULT_GUEST_PAGES
    assert layout.total_pages * 4096 == 2 * 1024**3


def test_regions_are_contiguous_and_cover_memory():
    layout = GuestLayout(runtime_pages=1000, data_pages=2000)
    assert layout.boot_start == 0
    assert layout.runtime_start == layout.boot_start + layout.boot_pages
    assert layout.data_start == layout.runtime_start + layout.runtime_pages
    assert layout.heap_start == layout.data_start + layout.data_pages
    assert layout.heap_start + layout.heap_pages == layout.total_pages


def test_region_addressing_roundtrip():
    layout = GuestLayout(runtime_pages=100, data_pages=50)
    assert layout.region_of(layout.boot_page(0)) == "boot"
    assert layout.region_of(layout.runtime_page(99)) == "runtime"
    assert layout.region_of(layout.data_page(0)) == "data"
    assert layout.region_of(layout.heap_start) == "heap"


def test_region_offset_bounds_checked():
    layout = GuestLayout(runtime_pages=100, data_pages=0)
    with pytest.raises(ValueError):
        layout.runtime_page(100)
    with pytest.raises(ValueError):
        layout.data_page(0)
    with pytest.raises(ValueError):
        layout.region_of(layout.total_pages)


def test_region_pages_match_one_page_per_offset():
    layout = GuestLayout(runtime_pages=100, data_pages=50)
    offsets = [7, 0, 99, 42]
    assert layout.region_pages("runtime", offsets) == [
        layout.runtime_page(offset) for offset in offsets
    ]
    assert layout.region_pages("data", range(50)) == [
        layout.data_page(offset) for offset in range(50)
    ]
    assert layout.region_pages("heap", []) == []
    for bad in ([3, 100, 5], [3, -1]):
        with pytest.raises(ValueError):
            layout.region_pages("runtime", bad)
    with pytest.raises(ValueError):
        layout.region_pages("data", range(51))


def test_oversized_layout_rejected():
    with pytest.raises(ValueError):
        GuestLayout(total_pages=1000, boot_pages=600, runtime_pages=500)


# -- snapshot ---------------------------------------------------------


def test_create_snapshot_files(store):
    snap = create_snapshot(store, "fn", 1000, {3: 30, 7: 70})
    assert snap.memory_file.num_pages == 1000
    assert snap.vmstate_file.num_pages == VMSTATE_PAGES
    assert sorted(snap.memory_file.pages) == [3, 7]
    assert snap.page_value(3) == 30
    assert snap.page_value(4) == 0
    assert snap.memory_file.sparse


def test_snapshot_drops_zero_contents(store):
    snap = create_snapshot(store, "fn", 100, {1: 0, 2: 5})
    assert snap.memory_file.pages == {2: 5}


def test_capture_contents_from_anonymous_space(store):
    space = AddressSpace(100)
    space.mmap_anonymous(0, 100)
    space.write_anon(4, 44)
    space.write_anon(5, 0)  # guest wrote zeros: stays zero
    contents = capture_memory_contents(space)
    assert contents == {4: 44}


def test_capture_contents_merges_file_backing_and_dirty_overlay(store):
    base = create_snapshot(store, "base", 100, {1: 10, 2: 20, 3: 30})
    space = AddressSpace(100)
    space.mmap_file(0, 100, base.memory_file, 0)
    space.write_anon(2, 99)  # dirtied by the invocation
    space.write_anon(3, 0)  # freed and sanitized
    space.write_anon(50, 500)  # fresh allocation... but file-backed CoW
    contents = capture_memory_contents(space, base=base)
    assert contents[1] == 10  # untouched: inherited from base
    assert contents[2] == 99  # dirty overlay wins
    assert 3 not in contents  # zeroed page dropped
    assert contents[50] == 500


def test_capture_contents_without_base_scans_mapped_files(store):
    base = create_snapshot(store, "base2", 100, {10: 1, 60: 6})
    space = AddressSpace(100)
    space.mmap_anonymous(0, 100)
    space.mmap_file(0, 50, base.memory_file, 0)  # covers file page 10 only
    contents = capture_memory_contents(space)
    assert contents == {10: 1}


def test_roundtrip_snapshot_of_captured_contents(store):
    base = create_snapshot(store, "gen0", 200, {i: i for i in range(1, 50)})
    space = AddressSpace(200)
    space.mmap_file(0, 200, base.memory_file, 0)
    space.write_anon(10, 1000)
    new = create_snapshot(
        store, "gen1", 200, capture_memory_contents(space, base=base)
    )
    assert new.page_value(10) == 1000
    assert new.page_value(20) == 20
    assert new.page_value(100) == 0
