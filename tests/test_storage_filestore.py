"""Unit tests for the file store and sparse files."""

import pytest

from repro.sim import Environment, SimulationError
from repro.storage import BlockDevice, DeviceSpec, FileStore
from repro.storage.filestore import PAGE_SIZE


@pytest.fixture
def setup():
    env = Environment()
    device = BlockDevice(
        env,
        DeviceSpec(
            name="d",
            random_latency_us=100.0,
            sequential_latency_us=10.0,
            bandwidth_bytes_per_us=1000.0,
            iops=1e6,
            queue_depth=4,
        ),
    )
    return env, device, FileStore(env, device)


def run(env, gen):
    return env.run(until=env.process(gen))


def test_create_and_get(setup):
    env, device, store = setup
    f = store.create("mem", 100)
    assert store.get("mem") is f
    assert f.size_bytes == 100 * PAGE_SIZE
    assert store.exists("mem")
    assert store.names() == ["mem"]


def test_duplicate_create_rejected(setup):
    _, _, store = setup
    store.create("a", 1)
    with pytest.raises(SimulationError):
        store.create("a", 1)


@pytest.mark.parametrize(
    "pages", [{9: 1}, {-1: 2}, {4: 3}, {0: 1, 9: 1, -1: 2}]
)
def test_create_rejects_out_of_range_pages(setup, pages):
    _, _, store = setup
    with pytest.raises(SimulationError):
        store.create("f", 4, pages=pages)
    assert not store.exists("f")
    # Nothing was allocated: the next file still starts at offset 0.
    assert store.create("g", 4, pages={0: 1, 3: 2}).base_offset == 0


def test_get_missing_rejected(setup):
    _, _, store = setup
    with pytest.raises(SimulationError):
        store.get("nope")


def test_delete(setup):
    _, _, store = setup
    store.create("a", 1)
    store.delete("a")
    assert not store.exists("a")
    with pytest.raises(SimulationError):
        store.delete("a")


def test_files_are_contiguous_and_disjoint(setup):
    _, _, store = setup
    f1 = store.create("a", 10)
    f2 = store.create("b", 5)
    assert f1.base_offset == 0
    assert f2.base_offset == 10 * PAGE_SIZE
    assert f1.device_offset(9) + PAGE_SIZE <= f2.device_offset(0)


def test_page_contents_roundtrip(setup):
    _, _, store = setup
    f = store.create("mem", 10)
    f.write_page(3, 777)
    assert f.page_value(3) == 777
    assert f.page_value(4) == 0
    f.write_page(3, 0)
    assert f.page_value(3) == 0
    assert f.nonzero_pages() == []


def test_page_bounds_checked(setup):
    _, _, store = setup
    f = store.create("mem", 10)
    with pytest.raises(SimulationError):
        f.page_value(10)
    with pytest.raises(SimulationError):
        f.write_page(-1, 5)


def test_read_returns_contents_and_costs_io(setup):
    env, device, store = setup
    f = store.create("mem", 10, pages={0: 11, 1: 22})

    def proc():
        values = yield from f.read(0, 2)
        return values

    values = run(env, proc())
    assert values == [11, 22]
    assert device.stats.requests == 1
    assert device.stats.bytes_read == 2 * PAGE_SIZE


def test_read_past_eof_rejected(setup):
    env, _, store = setup
    f = store.create("mem", 4)

    def proc():
        yield from f.read(3, 2)

    with pytest.raises(SimulationError):
        run(env, proc())


def test_sparse_hole_read_costs_no_io(setup):
    env, device, store = setup
    f = store.create("mem", 10, sparse=True)

    def proc():
        values = yield from f.read(0, 10)
        return values

    values = run(env, proc())
    assert values == [0] * 10
    assert device.stats.requests == 0
    assert env.now == 0.0


def test_sparse_read_splits_into_data_runs(setup):
    env, device, store = setup
    # pages 1,2 and 5 hold data; 0, 3-4, 6-9 are holes.
    f = store.create("mem", 10, pages={1: 5, 2: 6, 5: 7}, sparse=True)

    def proc():
        values = yield from f.read(0, 10)
        return values

    values = run(env, proc())
    assert values == [0, 5, 6, 0, 0, 7, 0, 0, 0, 0]
    assert device.stats.requests == 2  # run [1,2] and run [5]
    assert device.stats.bytes_read == 3 * PAGE_SIZE


def test_non_sparse_file_reads_holes_from_disk(setup):
    env, device, store = setup
    f = store.create("mem", 10, pages={1: 5}, sparse=False)

    def proc():
        yield from f.read(0, 10)

    run(env, proc())
    assert device.stats.bytes_read == 10 * PAGE_SIZE


def test_is_hole(setup):
    _, _, store = setup
    sparse = store.create("s", 4, pages={1: 9}, sparse=True)
    dense = store.create("d", 4, pages={1: 9}, sparse=False)
    assert sparse.is_hole(0)
    assert not sparse.is_hole(1)
    assert not dense.is_hole(0)


def test_sequential_file_read_is_sequential_on_device(setup):
    env, device, store = setup
    f = store.create("mem", 64, pages={i: i + 1 for i in range(64)})

    def proc():
        for i in range(0, 64, 8):
            yield from f.read(i, 8)

    run(env, proc())
    assert device.stats.requests == 8
    assert device.stats.sequential_requests == 7
