"""Tests for adaptive snapshot re-recording."""

import pytest

from repro.core import FaaSnapPlatform, Policy
from repro.core.adaptive import (
    AdaptiveConfig,
    AdaptiveSnapshotManager,
    slow_fault_count,
)
from repro.workloads.base import INPUT_A, InputSpec, WorkloadProfile

SMALL = WorkloadProfile(
    name="small-adaptive",
    description="tiny profile for adaptive tests",
    core_pages=300,
    var_base_pages=200,
    var_pool_pages=800,
    anon_base_pages=150,
    compute_base_us=10_000.0,
    spread_factor=5.0,
    input_b_ratio=1.5,
    total_pages=16_384,
    boot_pages=1_024,
)


def make_manager(stale_slow_faults=20, backoff=1):
    platform = FaaSnapPlatform()
    handle = platform.register_function(SMALL)
    manager = AdaptiveSnapshotManager(
        platform,
        handle,
        config=AdaptiveConfig(
            stale_slow_faults=stale_slow_faults,
            min_invocations_between_records=backoff,
        ),
    )
    return manager


def test_config_validation():
    with pytest.raises(ValueError):
        AdaptiveConfig(stale_slow_faults=0)
    with pytest.raises(ValueError):
        AdaptiveConfig(min_invocations_between_records=0)


def test_warm_policy_rejected():
    platform = FaaSnapPlatform()
    handle = platform.register_function(SMALL)
    with pytest.raises(ValueError):
        AdaptiveSnapshotManager(platform, handle, policy=Policy.WARM)


def test_stable_input_never_re_records():
    manager = make_manager()
    for _ in range(4):
        _, re_recorded = manager.invoke(INPUT_A)
        assert not re_recorded
    assert manager.stats.re_records == 0
    assert manager.record_input == INPUT_A


def test_drifted_input_triggers_re_record_and_recovers():
    manager = make_manager(stale_slow_faults=20)
    drifted = InputSpec(content_id=7, size_ratio=3.0)
    first, re_recorded = manager.invoke(drifted)
    assert slow_fault_count(first) > 20
    assert re_recorded
    assert manager.record_input == drifted
    # The refreshed snapshot serves the drifted workload faster.
    second, re_recorded_again = manager.invoke(drifted)
    assert not re_recorded_again
    assert slow_fault_count(second) < slow_fault_count(first)
    assert second.total_us < first.total_us


def test_backoff_limits_re_record_rate():
    manager = make_manager(stale_slow_faults=20, backoff=3)
    inputs = [
        InputSpec(content_id=10 + i, size_ratio=2.0 + i) for i in range(4)
    ]
    re_records = sum(1 for spec in inputs if manager.invoke(spec)[1])
    assert re_records <= 2
    assert manager.stats.invocations == 4
    assert len(manager.stats.slow_counts) == 4


def test_slow_fault_helpers_on_empty_result():
    from repro.core.restore import InvocationResult

    empty = InvocationResult(
        policy=Policy.FAASNAP,
        function="x",
        input=INPUT_A,
        setup_us=0.0,
        invoke_us=0.0,
    )
    assert slow_fault_count(empty) == 0
