"""Tests for the §7 extensions: snapshot secret wiping and tiered
artifact storage."""

import dataclasses

import pytest

from repro.core import FaaSnapPlatform, Policy
from repro.core.restore import PlatformConfig
from repro.storage.presets import EBS_IO2
from repro.workloads.base import INPUT_A, InputSpec, WorkloadProfile

SMALL = WorkloadProfile(
    name="small-secure",
    description="tiny profile for extension tests",
    core_pages=300,
    var_base_pages=100,
    var_pool_pages=400,
    anon_base_pages=150,
    anon_free_fraction=0.8,
    compute_base_us=10_000.0,
    spread_factor=5.0,
    input_b_ratio=1.4,
    total_pages=16_384,
    boot_pages=1_024,
)


# -- snapshot secret wiping (7.4) ------------------------------------


def secret_pages():
    """Pages that hold PRNG state in the runtime region."""
    from repro.workloads.base import build_layout, runtime_resident_offsets

    layout = build_layout(SMALL)
    offsets = runtime_resident_offsets(SMALL)
    return tuple(layout.runtime_page(off) for off in offsets[:4])


def test_wiped_pages_absent_from_snapshot():
    platform = FaaSnapPlatform()
    pages = secret_pages()
    handle = platform.register_function(SMALL, wipe_pages=pages)
    artifacts = platform.ensure_record(handle, INPUT_A, Policy.FAASNAP)
    for page in pages:
        assert artifacts.warm_snapshot.page_value(page) == 0
    # Without wiping, the same pages hold runtime state.
    plain = FaaSnapPlatform()
    plain_handle = plain.register_function(SMALL)
    plain_artifacts = plain.ensure_record(plain_handle, INPUT_A, Policy.FAASNAP)
    for page in pages:
        assert plain_artifacts.warm_snapshot.page_value(page) != 0


def test_wiped_pages_not_in_loading_set():
    """Wiped (zero) pages must be served from anonymous memory, not
    prefetched from any file."""
    platform = FaaSnapPlatform()
    pages = secret_pages()
    handle = platform.register_function(SMALL, wipe_pages=pages)
    artifacts = platform.ensure_record(handle, INPUT_A, Policy.FAASNAP)
    covered = artifacts.loading_set.covered_pages()
    for page in pages:
        assert page not in covered


def test_restored_clones_do_not_share_wiped_state():
    """Two VMs restored from the same wiped snapshot observe zeros at
    the secret pages instead of a shared PRNG state (7.4)."""
    platform = FaaSnapPlatform()
    pages = secret_pages()
    handle = platform.register_function(SMALL, wipe_pages=pages)
    results = platform.invoke_burst(
        handle, INPUT_A, Policy.FAASNAP, parallelism=2
    )
    assert len(results) == 2
    artifacts = platform.ensure_record(handle, INPUT_A, Policy.FAASNAP)
    for page in pages:
        assert artifacts.warm_snapshot.page_value(page) == 0


def test_wipe_does_not_break_other_pages():
    platform = FaaSnapPlatform()
    handle = platform.register_function(SMALL, wipe_pages=secret_pages())
    result = platform.invoke(handle, SMALL.input_b(), Policy.FAASNAP)
    assert result.total_us > 0
    assert result.fault_count() > 0


# -- tiered storage (7.2) -----------------------------------------------


def tiered_platform():
    config = dataclasses.replace(
        PlatformConfig(), device=EBS_IO2, tiered_storage=True
    )
    return FaaSnapPlatform(config)


def test_tiered_places_files_on_separate_devices():
    platform = tiered_platform()
    handle = platform.register_function(SMALL)
    faasnap = platform.ensure_record(handle, INPUT_A, Policy.FAASNAP)
    reap = platform.ensure_record(handle, INPUT_A, Policy.REAP)
    assert faasnap.warm_snapshot.memory_file.device.spec.name == "ebs-io2"
    assert faasnap.loading_file.device.spec.name == "nvme-local"
    assert reap.reap_ws_file.device.spec.name == "nvme-local"


def test_tiered_invocations_work_for_all_policies():
    platform = tiered_platform()
    handle = platform.register_function(SMALL)
    for policy in (Policy.FIRECRACKER, Policy.REAP, Policy.FAASNAP):
        result = platform.invoke(handle, SMALL.input_b(), policy)
        assert result.total_us > 0


def test_untiered_platform_has_single_store():
    platform = FaaSnapPlatform()
    assert platform.host.artifact_store is platform.store
    assert platform.host.local_device is None
