"""Unit tests for daemon behaviours not covered by the platform
integration tests."""

import pytest

from repro.core import FaaSnapPlatform, Policy
from repro.workloads.base import INPUT_A, InputSpec, WorkloadProfile

TINY = WorkloadProfile(
    name="tiny-daemon",
    description="minimal profile",
    core_pages=200,
    var_base_pages=50,
    var_pool_pages=200,
    anon_base_pages=100,
    compute_base_us=5_000.0,
    spread_factor=5.0,
    total_pages=16_384,
    boot_pages=1_024,
)


def test_drop_caches_resets_cache_and_device():
    platform = FaaSnapPlatform()
    handle = platform.register_function(TINY)
    platform.invoke(handle, INPUT_A, Policy.FIRECRACKER)
    # The invocation populated the cache and issued reads.
    platform.invoke(handle, INPUT_A, Policy.FIRECRACKER, drop_caches=False)
    assert len(platform.cache) > 0
    platform.drop_caches()
    assert len(platform.cache) == 0
    assert platform.device.stats.requests == 0


def test_invoke_without_drop_caches_is_faster():
    platform = FaaSnapPlatform()
    handle = platform.register_function(TINY)
    cold_cache = platform.invoke(handle, INPUT_A, Policy.FIRECRACKER)
    warm_cache = platform.invoke(
        handle, INPUT_A, Policy.FIRECRACKER, drop_caches=False
    )
    assert warm_cache.total_us < cold_cache.total_us
    assert warm_cache.major_faults < cold_cache.major_faults


def test_record_input_distinguishes_artifacts():
    platform = FaaSnapPlatform()
    handle = platform.register_function(TINY)
    a = platform.ensure_record(handle, INPUT_A, Policy.FAASNAP)
    b = platform.ensure_record(
        handle, InputSpec(content_id=2, size_ratio=2.0), Policy.FAASNAP
    )
    assert a is not b
    assert len(b.ws_groups) > len(a.ws_groups)


def test_clone_artifacts_are_cached_across_bursts():
    platform = FaaSnapPlatform()
    handle = platform.register_function(TINY)
    clones = platform.make_clones(handle, 2)
    first = platform.invoke_burst(
        handle,
        INPUT_A,
        Policy.FAASNAP,
        parallelism=2,
        same_snapshot=False,
        clones=clones,
    )
    records_before = len(platform.host._artifacts)
    second = platform.invoke_burst(
        handle,
        INPUT_A,
        Policy.FAASNAP,
        parallelism=2,
        same_snapshot=False,
        clones=clones,
    )
    assert len(platform.host._artifacts) == records_before  # no new records
    assert len(first) == len(second) == 2


def test_burst_with_too_few_clones_rejected():
    platform = FaaSnapPlatform()
    handle = platform.register_function(TINY)
    clones = platform.make_clones(handle, 1)
    with pytest.raises(ValueError, match="clones"):
        platform.invoke_burst(
            handle,
            INPUT_A,
            Policy.FAASNAP,
            parallelism=3,
            same_snapshot=False,
            clones=clones,
        )


def test_warm_policy_ignores_page_cache_state():
    platform = FaaSnapPlatform()
    handle = platform.register_function(TINY)
    result = platform.invoke(handle, INPUT_A, Policy.WARM)
    assert result.setup_us == 0.0
    assert result.major_faults == 0
    assert platform.device.stats.requests == 0


def test_results_report_memory_footprint():
    platform = FaaSnapPlatform()
    handle = platform.register_function(TINY)
    result = platform.invoke(handle, INPUT_A, Policy.FAASNAP)
    assert result.rss_pages > 0
    assert result.memory_footprint_mb > 0
    reap = platform.invoke(handle, INPUT_A, Policy.REAP)
    assert reap.private_buffer_pages > 0  # REAP's staging buffer
