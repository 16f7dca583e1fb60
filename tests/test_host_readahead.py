"""Tests for the adaptive readahead policy."""

import pytest

from repro.host import HostParams, PageCache, ReadaheadPolicy
from repro.sim import Environment
from repro.storage import BlockDevice, DeviceSpec, FileStore

PARAMS = HostParams(readahead_pages=8, readahead_max_pages=64)


@pytest.fixture
def rig():
    env = Environment()
    device = BlockDevice(env, DeviceSpec("d", 100, 10, 1000, 1e6))
    store = FileStore(env, device)
    f = store.create("mem", 4096, pages={i: i + 1 for i in range(4096)})
    return env, device, PageCache(env), f


def _window(policy, f, cache, fault_page):
    """Span and commit a window; its page count."""
    end, size = policy.span(f, cache, fault_page)
    policy.commit(f.name, end, size)
    return end - fault_page


def _size(policy, f, cache, fault_page):
    """The size of the window a fault would be cut from."""
    return policy.span(f, cache, fault_page)[1]


def test_window_starts_at_base(rig):
    env, device, cache, f = rig
    policy = ReadaheadPolicy(PARAMS)
    assert _size(policy, f, cache, 0) == 8


def test_sequential_faults_ramp_up(rig):
    env, device, cache, f = rig
    policy = ReadaheadPolicy(PARAMS)
    sizes = []
    cursor = 0
    for _ in range(5):
        npages = _window(policy, f, cache, cursor)
        sizes.append(npages)
        cursor += npages
    assert sizes == [8, 16, 32, 64, 64]  # doubles, capped at max


def test_random_fault_resets_window(rig):
    env, device, cache, f = rig
    policy = ReadaheadPolicy(PARAMS)
    _window(policy, f, cache, 0)
    _window(policy, f, cache, 8)  # sequential: ramps to 16
    assert _size(policy, f, cache, 2000) == 8  # jump: reset


def test_slack_still_counts_as_sequential(rig):
    env, device, cache, f = rig
    policy = ReadaheadPolicy(PARAMS)
    _window(policy, f, cache, 0)  # covers [0, 8)
    # A fault a few pages past the window end is still a stream.
    assert _size(policy, f, cache, 10) == 16


def test_streams_tracked_per_file(rig):
    env, device, cache, f = rig
    other = FileStore(env, device).create("other", 64)
    policy = ReadaheadPolicy(PARAMS)
    _window(policy, f, cache, 0)
    # A different file has independent stream state.
    assert _size(policy, other, cache, 8) == 8


def test_fault_read_failure_abandons_pending(rig):
    env, device, cache, f = rig
    policy = ReadaheadPolicy(PARAMS)

    class Boom(Exception):
        pass

    def broken_read(page, npages):
        raise Boom()
        yield  # pragma: no cover - makes this a generator

    f.read = broken_read

    def proc():
        yield from policy.fault_read(f, cache, 0)

    process = env.process(proc())
    with pytest.raises(Boom):
        env.run(until=process)
    # No pending markers leak: a later fault can retry.
    for page in range(8):
        assert cache.pending_event("mem", page) is None
        assert not cache.contains("mem", page)


def test_device_queue_wait_accumulates():
    env = Environment()
    device = BlockDevice(
        env, DeviceSpec("d", 100, 10, 1000, 1e6, queue_depth=1)
    )

    def reader(offset):
        yield from device.read(offset, 4096)

    env.process(reader(0))
    env.process(reader(1 << 20))
    env.run()
    assert device.stats.queue_wait_us > 0
