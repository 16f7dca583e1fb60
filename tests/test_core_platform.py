"""Integration tests: the full platform across policies.

Uses a scaled-down profile so each invocation simulates in
milliseconds while exercising the identical code paths as the paper
benchmarks.
"""

import dataclasses
import pickle

import pytest

from repro.core import FaaSnapPlatform, Policy
from repro.core.policies import ABLATION_POLICIES, MAIN_POLICIES
from repro.host.fault import FaultKind
from repro.workloads.base import INPUT_A, InputSpec, WorkloadProfile

TINY = WorkloadProfile(
    name="tiny",
    description="scaled-down function for integration tests",
    core_pages=400,
    var_base_pages=200,
    var_pool_pages=800,
    data_pages=300,
    data_read_pages=300,
    anon_base_pages=250,
    anon_free_fraction=0.9,
    compute_base_us=20_000.0,
    spread_factor=6.0,
    input_b_ratio=1.6,
    total_pages=32_768,
    boot_pages=2_048,
)

INPUT_B = TINY.input_b()


@pytest.fixture
def platform():
    return FaaSnapPlatform()


@pytest.fixture
def fn(platform):
    return platform.register_function(TINY)


def test_register_by_name(platform):
    handle = platform.register_function("hello-world")
    assert handle.name == "hello-world"
    assert platform.function("hello-world") is handle


def test_register_twice_rejected(platform, fn):
    with pytest.raises(ValueError):
        platform.register_function(TINY)


def test_unknown_function_lookup(platform):
    with pytest.raises(KeyError):
        platform.function("ghost")


@pytest.mark.parametrize("policy", MAIN_POLICIES + [Policy.WARM])
def test_invoke_returns_result(platform, fn, policy):
    result = platform.invoke(fn, INPUT_B, policy)
    assert result.policy is policy
    assert result.function == "tiny"
    assert result.invoke_us > 0
    assert result.total_us >= result.invoke_us


@pytest.mark.parametrize("policy", MAIN_POLICIES)
def test_result_fault_view_matches_records_and_pickles(platform, fn, policy):
    """The result's fault accessors read the columnar log; each must
    equal the per-record sum over its record view, and the view must
    survive a trip through pickle (as between ``--jobs`` workers)."""
    result = platform.invoke(fn, INPUT_B, policy)
    records = result.fault_records
    assert records
    clone = pickle.loads(pickle.dumps(result))
    assert clone.fault_records == records
    assert result.fault_count() == len(records)
    for kind in FaultKind:
        assert result.fault_count(kind) == sum(
            1 for r in records if r.kind is kind
        )
    assert result.major_faults == sum(
        1 for r in records if r.kind is FaultKind.MAJOR
    )
    assert result.fault_time_us == sum(r.duration_us for r in records)
    assert result.fault_block_requests == sum(
        r.block_requests for r in records
    )
    assert result.guest_fault_bytes == sum(r.bytes_read for r in records)


def test_warm_is_fastest_and_firecracker_slowest(platform, fn):
    totals = {
        policy: platform.invoke(fn, INPUT_B, policy).total_us
        for policy in MAIN_POLICIES + [Policy.WARM]
    }
    assert totals[Policy.WARM] == min(totals.values())
    assert totals[Policy.FIRECRACKER] == max(totals.values())


def test_faasnap_beats_firecracker_and_reap_on_changed_input(platform, fn):
    """The paper's headline claim (C1) on a changed input."""
    results = {
        policy: platform.invoke(fn, INPUT_B, policy).total_us
        for policy in MAIN_POLICIES
    }
    assert results[Policy.FAASNAP] < results[Policy.FIRECRACKER]
    assert results[Policy.FAASNAP] < results[Policy.REAP]


def test_record_artifacts_cached(platform, fn):
    first = platform.ensure_record(fn, INPUT_A, Policy.FAASNAP)
    second = platform.ensure_record(fn, INPUT_A, Policy.FAASNAP)
    assert first is second
    other = platform.ensure_record(fn, INPUT_A, Policy.REAP)
    assert other is not first
    assert not other.sanitize and first.sanitize


def test_faasnap_artifacts_have_loading_set(platform, fn):
    artifacts = platform.ensure_record(fn, INPUT_A, Policy.FAASNAP)
    assert artifacts.ws_groups is not None and len(artifacts.ws_groups) > 0
    assert artifacts.loading_set is not None
    assert artifacts.loading_file is not None
    assert artifacts.loading_set.region_count > 0
    assert artifacts.reap_ws is None


def test_reap_artifacts_have_working_set(platform, fn):
    artifacts = platform.ensure_record(fn, INPUT_A, Policy.REAP)
    assert artifacts.reap_ws is not None and len(artifacts.reap_ws) > 0
    assert artifacts.reap_ws_file is not None
    assert artifacts.ws_groups is None


def test_sanitize_zeroes_freed_pages_in_snapshot(platform, fn):
    sanitized = platform.ensure_record(fn, INPUT_A, Policy.FAASNAP)
    plain = platform.ensure_record(fn, INPUT_A, Policy.FIRECRACKER)
    freed = set(sanitized.record_trace.freed_pages)
    assert freed
    sanitized_nonzero = set(sanitized.warm_snapshot.nonzero_pages())
    plain_nonzero = set(plain.warm_snapshot.nonzero_pages())
    assert not (freed & sanitized_nonzero)  # released set zeroed
    assert freed <= plain_nonzero  # garbage survives without sanitize


def test_host_page_recording_includes_readahead_pages(platform, fn):
    """FaaSnap's working set is a superset of REAP's faulted pages
    intersected with file-resident pages (paper §4.4)."""
    faasnap = platform.ensure_record(fn, INPUT_A, Policy.FAASNAP)
    reap = platform.ensure_record(fn, INPUT_A, Policy.REAP)
    ws_pages = set(faasnap.ws_groups.pages)
    # REAP's set contains heap pages (not file-resident); compare only
    # pages that live in the clean memory file.
    clean_nonzero = set(faasnap.clean_snapshot.nonzero_pages())
    reap_file_pages = {
        p for p in reap.reap_ws.pages_in_fault_order if p in clean_nonzero
    }
    assert reap_file_pages <= ws_pages
    assert len(ws_pages) > len(reap_file_pages)  # readahead extras


@pytest.mark.parametrize("policy", MAIN_POLICIES)
def test_memory_integrity_every_policy(platform, fn, policy):
    """All pages the guest reads observe the snapshot's contents."""
    artifacts = platform.ensure_record(fn, INPUT_A, policy)
    platform.drop_caches()
    from repro.core.restore import invocation_process
    from repro.workloads.base import generate_trace

    snapshot = artifacts.warm_snapshot
    trace = generate_trace(TINY, INPUT_B, prior=artifacts.record_trace)
    read_pages = sorted(
        {a.page for a in trace.accesses if not a.write}
    )
    result = platform.invoke(fn, INPUT_B, policy)
    assert result.fault_count() > 0
    # Re-run manually to inspect the VM state afterwards.
    process = platform.env.process(
        invocation_process(
            platform.env,
            platform.config,
            platform.store,
            platform.cache,
            platform.cpu,
            artifacts,
            INPUT_B,
            policy,
            f"integrity.{policy.value}",
        )
    )
    platform.env.run(until=process)
    # The snapshot itself must still hold the recorded values.
    for page in read_pages[:200]:
        expected = snapshot.page_value(page)
        assert snapshot.memory_file.page_value(page) == expected


def test_mismatched_record_policy_rejected(platform, fn):
    from repro.core.restore import invocation_process

    artifacts = platform.ensure_record(fn, INPUT_A, Policy.FIRECRACKER)
    with pytest.raises(ValueError, match="sanitize"):
        gen = invocation_process(
            platform.env,
            platform.config,
            platform.store,
            platform.cache,
            platform.cpu,
            artifacts,
            INPUT_B,
            Policy.FAASNAP,
            "bad",
        )
        next(gen)


def test_ablation_ladder_improves_monotonically_in_fault_time(platform, fn):
    """Figure 9's direction: each added optimization lowers the page
    fault time versus stock Firecracker."""
    fault_times = {}
    for policy in ABLATION_POLICIES:
        result = platform.invoke(fn, INPUT_B, policy)
        fault_times[policy] = result.fault_time_us
    assert fault_times[Policy.FAASNAP] < fault_times[Policy.FIRECRACKER]
    assert (
        fault_times[Policy.FAASNAP_CONCURRENT]
        < fault_times[Policy.FIRECRACKER]
    )


def test_cached_has_no_major_faults(platform, fn):
    result = platform.invoke(fn, INPUT_B, Policy.CACHED)
    assert result.major_faults == 0
    assert result.fault_count(FaultKind.MINOR) > 0


def test_reap_uses_uffd_for_out_of_ws_faults(platform, fn):
    same = platform.invoke(fn, INPUT_A, Policy.REAP)
    changed = platform.invoke(fn, INPUT_B, Policy.REAP)
    assert changed.uffd_faults > same.uffd_faults
    assert changed.fetch_bytes > 0
    assert changed.setup_us > same.invoke_us * 0  # setup includes fetch
    assert changed.fetch_time_us > 0


def test_burst_same_snapshot(platform, fn):
    results = platform.invoke_burst(
        fn, INPUT_A, Policy.FAASNAP, parallelism=4, same_snapshot=True
    )
    assert len(results) == 4
    # The loading set is read once: only one VM reports fetch bytes.
    fetchers = [r for r in results if r.fetch_bytes > 0]
    assert len(fetchers) == 1


def test_burst_different_snapshots(platform, fn):
    results = platform.invoke_burst(
        fn, INPUT_A, Policy.FAASNAP, parallelism=3, same_snapshot=False
    )
    assert len(results) == 3
    # Every VM loads its own loading-set file.
    assert all(r.fetch_bytes > 0 for r in results)


def test_burst_parallelism_validated(platform, fn):
    with pytest.raises(ValueError):
        platform.invoke_burst(fn, INPUT_A, Policy.FAASNAP, parallelism=0)


def test_remote_storage_platform_slower(fn):
    local = FaaSnapPlatform()
    remote = FaaSnapPlatform(remote_storage=True)
    fn_l = local.register_function(TINY)
    fn_r = remote.register_function(TINY)
    t_local = local.invoke(fn_l, INPUT_B, Policy.FIRECRACKER).total_us
    t_remote = remote.invoke(fn_r, INPUT_B, Policy.FIRECRACKER).total_us
    assert t_remote > t_local


def test_cpu_contention_config():
    config = dataclasses.replace(
        FaaSnapPlatform().config, cpu_slots=2
    )
    platform = FaaSnapPlatform(config)
    assert platform.cpu is not None
    fn = platform.register_function(TINY)
    results = platform.invoke_burst(
        fn, INPUT_A, Policy.FAASNAP, parallelism=4
    )
    assert len(results) == 4


def test_results_deterministic():
    def run():
        platform = FaaSnapPlatform()
        fn = platform.register_function(TINY)
        return platform.invoke(fn, INPUT_B, Policy.FAASNAP).total_us

    assert run() == run()
