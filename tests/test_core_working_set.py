"""Unit tests for working-set representations."""

import pytest

from repro.core.working_set import ReapWorkingSet, WorkingSetGroups


def test_groups_from_batches_basic():
    ws = WorkingSetGroups.from_batches([[5, 1, 9], [2, 7]], group_pages=1024)
    assert len(ws) == 5
    assert ws.group(5) == 1
    assert ws.group(1) == 1
    assert ws.group(2) == 2
    assert ws.num_groups == 2
    assert ws.pages == [1, 2, 5, 7, 9]


def test_groups_split_oversized_batches():
    ws = WorkingSetGroups.from_batches([list(range(10))], group_pages=4)
    assert ws.num_groups == 3
    assert ws.group(0) == 1
    assert ws.group(3) == 1
    assert ws.group(4) == 2
    assert ws.group(9) == 3


def test_groups_dedupe_across_batches():
    ws = WorkingSetGroups.from_batches([[1, 2], [2, 3]], group_pages=1024)
    assert ws.group(2) == 1  # first appearance wins
    assert ws.group(3) == 2


def test_groups_empty():
    ws = WorkingSetGroups.from_batches([])
    assert len(ws) == 0
    assert ws.num_groups == 0
    assert ws.pages == []
    assert 5 not in ws


def test_groups_invalid_group_pages():
    with pytest.raises(ValueError):
        WorkingSetGroups.from_batches([[1]], group_pages=0)


def test_pages_of_group():
    ws = WorkingSetGroups.from_batches([[9, 3], [1]], group_pages=1024)
    assert [ws.group(page) for page in (3, 9, 1)] == [1, 1, 2]


def test_groups_contains_and_size():
    ws = WorkingSetGroups.from_batches([[1, 2, 3]])
    assert 2 in ws
    assert 4 not in ws
    assert ws.size_mb() == pytest.approx(3 * 4096 / 1e6)


def test_reap_ws_preserves_fault_order():
    ws = ReapWorkingSet.from_fault_pages([9, 3, 9, 1, 3, 5])
    assert ws.pages_in_fault_order == [9, 3, 1, 5]
    assert len(ws) == 4


def test_reap_ws_size():
    ws = ReapWorkingSet.from_fault_pages(range(256))
    assert len(ws) == 256

