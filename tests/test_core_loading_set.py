"""Unit tests for loading-set construction and the loading-set file."""

import pytest

from repro.core.loading_set import (
    LoadingSet,
    build_loading_set,
    write_loading_set_file,
)
from repro.core.working_set import WorkingSetGroups
from repro.sim import Environment
from repro.storage import BlockDevice, DeviceSpec, FileStore
from repro.vm import create_snapshot


def groups(mapping):
    return WorkingSetGroups(group_of=dict(mapping))


def test_loading_set_is_ws_intersect_nonzero():
    ws = groups({1: 1, 2: 1, 10: 1, 11: 2})
    ls = build_loading_set(ws, nonzero_pages=[1, 2, 11, 50], merge_gap=0)
    covered = ls.covered_pages()
    assert covered == {1, 2, 11}
    assert ls.essential_pages == 3
    assert 10 not in covered  # zero page excluded (released set)
    assert 50 not in covered  # non-WS page excluded (cold set)


def test_regions_merge_within_gap():
    # Pages 0-1 and 5-6: gap of 3 pages.
    ws = groups({0: 1, 1: 1, 5: 1, 6: 1})
    nonzero = [0, 1, 5, 6]
    merged = build_loading_set(ws, nonzero, merge_gap=3)
    assert merged.region_count == 1
    assert merged.total_pages == 7  # includes gap pages 2-4
    assert merged.gap_pages == 3
    split = build_loading_set(ws, nonzero, merge_gap=2)
    assert split.region_count == 2
    assert split.total_pages == 4
    assert split.gap_pages == 0


def test_unmerged_region_count_reported():
    ws = groups({0: 1, 2: 1, 4: 1})
    ls = build_loading_set(ws, [0, 2, 4], merge_gap=32)
    assert ls.unmerged_region_count == 3
    assert ls.region_count == 1


def test_regions_sorted_by_group_then_address():
    # Page 100 is group 1; pages 0-1 are group 2; page 200 group 1.
    ws = groups({100: 1, 200: 1, 0: 2, 1: 2})
    ls = build_loading_set(ws, [0, 1, 100, 200], merge_gap=0)
    order = [(r.group, r.start) for r in ls.regions]
    assert order == [(1, 100), (1, 200), (2, 0)]


def test_region_group_is_min_group_of_members():
    # One merged region containing group-3 and group-1 pages.
    ws = groups({0: 3, 2: 1})
    ls = build_loading_set(ws, [0, 2], merge_gap=5)
    assert ls.region_count == 1
    assert ls.regions[0].group == 1


def test_file_offsets_are_contiguous_in_region_order():
    ws = groups({0: 2, 1: 2, 50: 1, 51: 1, 52: 1})
    ls = build_loading_set(ws, [0, 1, 50, 51, 52], merge_gap=0)
    assert [r.file_offset for r in ls.regions] == [0, 3]
    assert ls.total_pages == 5


def test_negative_merge_gap_rejected():
    with pytest.raises(ValueError):
        build_loading_set(groups({}), [], merge_gap=-1)


def test_empty_loading_set():
    ls = build_loading_set(groups({}), [])
    assert ls.region_count == 0
    assert ls.total_pages == 0
    assert ls.size_mb == 0.0


def test_write_loading_set_file_layout():
    env = Environment()
    device = BlockDevice(env, DeviceSpec("d", 100, 10, 1000, 1e6))
    store = FileStore(env, device)
    snapshot = create_snapshot(
        store, "fn", 100, {0: 10, 1: 11, 50: 60, 51: 61}
    )
    ws = groups({50: 1, 51: 1, 0: 2, 1: 2})
    ls = build_loading_set(ws, snapshot.memory_file.pages, merge_gap=0)
    f = write_loading_set_file(store, "fn.ls", ls, snapshot)
    # Group 1 region (guest 50-51) comes first in the file.
    assert f.page_value(0) == 60
    assert f.page_value(1) == 61
    assert f.page_value(2) == 10
    assert f.page_value(3) == 11
    assert not f.sparse


def test_write_loading_set_file_gap_pages_are_zero():
    env = Environment()
    device = BlockDevice(env, DeviceSpec("d", 100, 10, 1000, 1e6))
    store = FileStore(env, device)
    snapshot = create_snapshot(store, "fn", 100, {0: 10, 3: 13})
    ws = groups({0: 1, 3: 1})
    ls = build_loading_set(ws, snapshot.memory_file.pages, merge_gap=5)
    f = write_loading_set_file(store, "fn.ls", ls, snapshot)
    assert f.num_pages == 4
    assert f.page_value(0) == 10
    assert f.page_value(1) == 0  # gap page, stored as a real zero block
    assert f.page_value(3) == 13
