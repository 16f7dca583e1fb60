"""Unit tests for the host page cache."""

import pytest

from repro.host import PageCache
from repro.sim import Environment, SimulationError
from repro.storage import BlockDevice, DeviceSpec, FileStore
from repro.storage.errors import DeviceError
from repro.storage.filestore import PAGE_SIZE, PageMap


@pytest.fixture
def cache():
    return PageCache(Environment())


def test_empty_cache(cache):
    assert len(cache) == 0
    assert not cache.contains("f", 0)


def test_insert_and_contains(cache):
    cache.insert_range("f", 3, 1)
    assert cache.contains("f", 3)
    assert not cache.contains("f", 4)
    assert not cache.contains("g", 3)
    assert len(cache) == 1


def test_insert_range(cache):
    cache.insert_range("f", 10, 5)
    assert cache.resident_set() == {("f", page) for page in range(10, 15)}
    assert cache.count_for_file("f") == 5


def test_reinsert_is_idempotent(cache):
    cache.insert_range("f", 1, 1)
    cache.insert_range("f", 1, 1)
    assert len(cache) == 1
    assert cache.insertions == 1


def test_drop_file(cache):
    cache.insert_range("a", 0, 3)
    cache.insert_range("b", 0, 2)
    dropped = cache.drop_file("a")
    assert dropped == 3
    assert cache.count_for_file("a") == 0
    assert cache.count_for_file("b") == 2


def test_drop_all(cache):
    cache.insert_range("a", 0, 3)
    assert cache.drop_all() == 3
    assert len(cache) == 0


def test_pending_read_lifecycle():
    env = Environment()
    cache = PageCache(env)
    event = cache.begin_pending("f", 5)
    assert cache.pending_event("f", 5) is event
    assert not event.triggered
    cache.insert_range("f", 5, 1)
    assert event.triggered
    assert cache.pending_event("f", 5) is None
    assert cache.contains("f", 5)


def test_begin_pending_twice_returns_same_event():
    cache = PageCache(Environment())
    first = cache.begin_pending("f", 1)
    second = cache.begin_pending("f", 1)
    assert first is second


def test_begin_pending_on_resident_page_rejected():
    cache = PageCache(Environment())
    cache.insert_range("f", 1, 1)
    with pytest.raises(SimulationError):
        cache.begin_pending("f", 1)


def test_abandon_pending_fires_event_without_inserting():
    cache = PageCache(Environment())
    event = cache.begin_pending("f", 7)
    cache.abandon_pending("f", 7)
    assert event.triggered
    assert not cache.contains("f", 7)
    assert cache.pending_event("f", 7) is None


def test_waiter_blocks_until_pending_completes():
    env = Environment()
    cache = PageCache(env)
    log = []

    def loader():
        cache.begin_pending("f", 0)
        yield env.timeout(50)
        cache.insert_range("f", 0, 1)

    def faulter():
        yield env.timeout(1)
        pending = cache.pending_event("f", 0)
        assert pending is not None
        yield pending
        log.append(env.now)

    env.process(loader())
    env.process(faulter())
    env.run()
    assert log == [50.0]


def test_warm_file(cache):
    cache.warm_file("mem", PageMap(dict.fromkeys(range(100), 1)))
    assert cache.count_for_file("mem") == 100


def test_resident_set_snapshot(cache):
    cache.insert_range("a", 1, 1)
    cache.insert_range("b", 2, 1)
    assert cache.resident_set() == {("a", 1), ("b", 2)}


def test_drop_file_leaves_pending_untouched():
    cache = PageCache(Environment())
    cache.insert_range("f", 0, 1)
    event = cache.begin_pending("f", 1)
    cache.drop_file("f")
    assert cache.pending_event("f", 1) is event
    assert not cache.contains("f", 0)


def test_failed_fill_leaves_another_readers_pages_in_flight():
    # A loader fill of pages 16-31 is in flight when a fault's fill of
    # page 20 (announced by the loader already) fails at 3 us. Page 20
    # must stay pending until the loader's read completes, so a later
    # fault waits on that read instead of issuing a duplicate.
    env = Environment()
    device = BlockDevice(
        env, DeviceSpec("d", 100.0, 10.0, 1589.0, 285_000, queue_depth=16)
    )
    file = FileStore(env, device).create("mem", 48)
    cache = PageCache(env)
    device_read = device.read

    def read(offset, nbytes):
        if nbytes == PAGE_SIZE:
            yield env.timeout(3.0)
            raise DeviceError("d", offset, nbytes)
        return (yield from device_read(offset, nbytes))

    device.read = read
    loaded = []
    woken = []

    def loader():
        yield from cache.fill(file, 16, 16, [(16, 32)])
        loaded.append(env.now)

    def fault():
        with pytest.raises(DeviceError):
            yield from cache.fill(file, 20, 1, [(20, 21)])

    def waiter():
        yield env.timeout(4.0)
        yield cache.pending_event("mem", 20)
        woken.append(env.now)

    env.process(loader())
    env.process(fault())
    env.process(waiter())
    env.run(until=3.5)
    assert cache.has_pending("mem", 20)
    assert not cache.contains("mem", 20)
    env.run()
    assert loaded == [pytest.approx(141.2, abs=0.05)]
    assert woken == loaded
    assert cache.resident_set() == {("mem", page) for page in range(16, 32)}
    assert not any(cache.has_pending("mem", p) for p in range(48))
