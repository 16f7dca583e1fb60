"""The PageMap contract: immutable, zero-free, picklable page maps."""

import copy
import operator
import pickle

import pytest

from repro.sim import Environment, SimulationError
from repro.storage import BlockDevice, DeviceSpec, FileStore, PageMap


def _store():
    env = Environment()
    device = BlockDevice(
        env, DeviceSpec("d", 100.0, 10.0, 1589.0, 285_000, queue_depth=16)
    )
    return FileStore(env, device)


def _set(pages):
    pages[1] = 5


def _del(pages):
    del pages[1]


MUTATIONS = {
    "__setitem__": _set,
    "__delitem__": _del,
    "__ior__": lambda m: operator.ior(m, {9: 9}),
    "update": lambda m: m.update({9: 9}),
    "pop": lambda m: m.pop(1),
    "popitem": lambda m: m.popitem(),
    "clear": lambda m: m.clear(),
    "setdefault": lambda m: m.setdefault(9, 9),
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_every_mutator_raises(name):
    pages = PageMap({1: 10, 2: 20})
    with pytest.raises(TypeError):
        MUTATIONS[name](pages)
    assert pages == {1: 10, 2: 20}


@pytest.mark.parametrize("clone", [pickle, copy], ids=["pickle", "deepcopy"])
def test_round_trip_gives_an_equal_page_map(clone):
    pages = PageMap({5: 1, 2: 7, 9: 3})
    pages.runs()
    pages.chunk_checksums(12, 4)
    if clone is pickle:
        twin = pickle.loads(pickle.dumps(pages))
    else:
        twin = copy.deepcopy(pages)
    assert type(twin) is PageMap
    assert twin is not pages
    assert twin == pages
    assert list(twin) == list(pages)
    assert twin.runs() == pages.runs()
    assert twin.chunk_checksums(12, 4) == pages.chunk_checksums(12, 4)
    with pytest.raises(TypeError):
        twin[1] = 1


def test_zero_values_are_dropped_at_construction():
    pages = PageMap({4: 0, 1: 10, 2: 0, 3: 30})
    assert pages == {1: 10, 3: 30}
    assert list(pages) == [1, 3]
    assert PageMap({7: 0}) == {}


def test_runs_are_sorted_maximal_and_built_once():
    pages = PageMap({9: 1, 3: 1, 4: 1, 0: 1, 5: 1})
    runs = pages.runs()
    assert runs == ([0, 3, 9], [1, 6, 10])
    assert pages.runs() is runs
    assert PageMap().runs() == ([], [])


def test_chunk_checksums_are_memoized_per_file_and_chunk_size():
    pages = PageMap({1: 10, 6: 60})
    checksums = pages.chunk_checksums(8, 4)
    assert pages.chunk_checksums(8, 4) is checksums
    assert len(pages.chunk_checksums(8, 2)) == 4
    # The same map backing a longer file checksums the extra chunk.
    assert pages.chunk_checksums(12, 4)[:2] == checksums
    with pytest.raises(SimulationError):
        pages.chunk_checksums(8, 0)


def test_create_keeps_a_page_map_and_converts_a_dict_once():
    store = _store()
    pages = PageMap({1: 10})
    assert store.create("kept", 4, pages=pages).pages is pages
    converted = store.create("dict", 4, pages={1: 10, 2: 0}).pages
    assert type(converted) is PageMap
    assert converted == {1: 10}
    # Files without contents share one empty map.
    empty = store.create("a", 4).pages
    assert type(empty) is PageMap and not empty
    assert store.create("b", 4, pages={}).pages is empty
    assert store.create("c", 4, pages={3: 0}).pages is empty


@pytest.mark.parametrize(
    "pages", [PageMap({4: 1}), PageMap({-1: 1}), {4: 0}, {9: 1, 0: 1}]
)
def test_create_rejects_out_of_range_pages(pages):
    store = _store()
    with pytest.raises(SimulationError):
        store.create("f", 4, pages=pages)
    assert store.create("f", 4, pages=PageMap({0: 1, 3: 2})).base_offset == 0
