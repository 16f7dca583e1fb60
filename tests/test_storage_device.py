"""Unit tests for the block-device model."""

import pytest

from repro.sim import Environment, SimulationError
from repro.storage import BlockDevice, DeviceSpec, EBS_IO2, NVME_LOCAL


def make_device(env, **overrides):
    params = dict(
        name="test-disk",
        random_latency_us=100.0,
        sequential_latency_us=10.0,
        bandwidth_bytes_per_us=1000.0,
        iops=1e6,
        queue_depth=4,
    )
    params.update(overrides)
    return BlockDevice(env, DeviceSpec(**params))


def run_reads(device, requests):
    """Run a sequence of (offset, nbytes) reads serially; return times."""
    env = device.env
    times = []

    def proc():
        for offset, nbytes in requests:
            elapsed = yield from device.read(offset, nbytes)
            times.append(elapsed)

    env.process(proc())
    env.run()
    return times


def test_spec_validation():
    with pytest.raises(ValueError):
        DeviceSpec("x", -1, 1, 1, 1)
    with pytest.raises(ValueError):
        DeviceSpec("x", 1, 1, 0, 1)
    with pytest.raises(ValueError):
        DeviceSpec("x", 1, 1, 1, 1, queue_depth=0)


def test_random_read_cost_is_latency_plus_transfer():
    env = Environment()
    device = make_device(env)
    (elapsed,) = run_reads(device, [(0, 4096)])
    assert elapsed == pytest.approx(100.0 + 4096 / 1000.0)


def test_sequential_read_is_cheaper():
    env = Environment()
    device = make_device(env)
    times = run_reads(device, [(0, 4096), (4096, 4096)])
    assert times[1] < times[0]
    assert times[1] == pytest.approx(10.0 + 4096 / 1000.0)


def test_non_contiguous_read_pays_random_latency_again():
    env = Environment()
    device = make_device(env)
    times = run_reads(device, [(0, 4096), (1 << 20, 4096)])
    assert times[1] == pytest.approx(times[0])


def test_iops_cap_floors_latency():
    env = Environment()
    device = make_device(env, iops=10_000.0, sequential_latency_us=1.0)
    # 10k IOPS -> 100 us per request, higher than the 1 us seq latency.
    times = run_reads(device, [(0, 4096), (4096, 4096)])
    assert times[1] == pytest.approx(100.0 + 4096 / 1000.0)


def test_stats_accumulate():
    env = Environment()
    device = make_device(env)
    run_reads(device, [(0, 4096), (4096, 8192), (1 << 20, 4096)])
    assert device.stats.requests == 3
    assert device.stats.sequential_requests == 1
    assert device.stats.bytes_read == 4096 + 8192 + 4096


def test_reset_stats():
    env = Environment()
    device = make_device(env)
    run_reads(device, [(0, 4096)])
    device.reset_stats()
    assert device.stats.requests == 0
    assert device.stats.bytes_read == 0


def test_bandwidth_channel_serialises_transfers():
    """Two concurrent large reads cannot exceed device bandwidth."""
    env = Environment()
    device = make_device(env, queue_depth=8)
    nbytes = 1_000_000  # 1000 us of transfer each at 1000 B/us
    done = []

    def reader(offset):
        yield from device.read(offset, nbytes)
        done.append(env.now)

    env.process(reader(0))
    env.process(reader(1 << 30))
    env.run()
    # Latencies overlap but the 2 MB of transfer must take >= 2000 us.
    assert max(done) >= 2000.0


def test_queue_depth_limits_concurrency():
    env = Environment()
    device = make_device(env, queue_depth=1)
    starts = []

    def reader(offset):
        yield from device.read(offset, 4096)
        starts.append(env.now)

    env.process(reader(0))
    env.process(reader(1 << 20))
    env.run()
    single = 100.0 + 4096 / 1000.0
    assert starts[1] == pytest.approx(2 * single)


def test_invalid_reads_rejected():
    env = Environment()
    device = make_device(env)

    def bad_size():
        yield from device.read(0, 0)

    env.process(bad_size())
    with pytest.raises(SimulationError):
        env.run()

    env2 = Environment()
    device2 = make_device(env2)

    def bad_offset():
        yield from device2.read(-4096, 4096)

    env2.process(bad_offset())
    with pytest.raises(SimulationError):
        env2.run()


def test_estimate_matches_uncontended_simulation():
    env = Environment()
    device = make_device(env)
    (elapsed,) = run_reads(device, [(0, 65536)])
    # One uncontended read costs its access latency plus its transfer.
    latency, transfer = device._service_times(False, 65536, None)
    assert elapsed == pytest.approx(latency + transfer)


def test_nvme_preset_matches_paper_numbers():
    assert NVME_LOCAL.bandwidth_bytes_per_us == 1589.0
    assert NVME_LOCAL.iops == 285_000.0


def test_ebs_preset_is_slower_than_nvme():
    assert EBS_IO2.random_latency_us > NVME_LOCAL.random_latency_us
    assert EBS_IO2.bandwidth_bytes_per_us < NVME_LOCAL.bandwidth_bytes_per_us
    assert EBS_IO2.iops < NVME_LOCAL.iops


def test_scattered_4k_reads_much_slower_than_one_sequential_read():
    """The core premise of the loading-set file layout (paper 4.7)."""
    npages = 256
    env = Environment()
    device = make_device(env)
    scattered = run_reads(
        device, [(i * 10 * 4096, 4096) for i in range(npages)]
    )
    env2 = Environment()
    device2 = make_device(env2)
    (sequential,) = run_reads(device2, [(0, npages * 4096)])
    assert sum(scattered) > 5 * sequential
