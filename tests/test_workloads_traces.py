"""Behavioural tests for workload trace generation."""

import dataclasses
import gc
import weakref

import pytest

from repro.core.restore import _SANITIZE_WRITE_US, sanitized_columns
from repro.host import HostParams, PageCache
from repro.sim import Environment, SimulationError
from repro.storage import BlockDevice, DeviceSpec, FileStore
from repro.vm import MicroVM, VmmParams, create_snapshot
from repro.vm.layout import GuestLayout
from repro.vm.vcpu import GuestAccess, TraceColumns
from repro.workloads import (
    build_layout,
    clean_snapshot_contents,
    generate_trace,
    generate_trace_pair,
    get_profile,
)
from repro.workloads import base as workloads_base
from repro.workloads.base import (
    INPUT_A,
    InputSpec,
    WorkloadProfile,
    content_token,
    runtime_resident_offsets,
)


SMALL = WorkloadProfile(
    name="small-test",
    description="tiny profile for fast unit tests",
    core_pages=100,
    var_base_pages=50,
    var_pool_pages=200,
    data_pages=80,
    data_read_pages=60,
    anon_base_pages=40,
    anon_free_fraction=0.75,
    compute_base_us=10_000.0,
    spread_factor=4.0,
    input_b_ratio=1.5,
    total_pages=8_192,
    boot_pages=512,
)


def test_trace_is_deterministic():
    t1 = generate_trace(SMALL, INPUT_A)
    t2 = generate_trace(SMALL, INPUT_A)
    assert [a.page for a in t1.accesses] == [a.page for a in t2.accesses]
    assert t1.freed_pages == t2.freed_pages


def test_same_size_different_content_touches_different_pages():
    """The image-diff scenario: same input size, different content."""
    t1 = generate_trace(SMALL, InputSpec(content_id=1))
    t2 = generate_trace(SMALL, InputSpec(content_id=2))
    only_1 = t1.touched_pages - t2.touched_pages
    only_2 = t2.touched_pages - t1.touched_pages
    assert only_1 and only_2
    # But the core pages are shared.
    layout = build_layout(SMALL)
    shared = t1.touched_pages & t2.touched_pages
    assert len(shared) >= SMALL.core_pages


def test_same_content_touches_same_pages():
    t1 = generate_trace(SMALL, InputSpec(content_id=7))
    t2 = generate_trace(SMALL, InputSpec(content_id=7))
    assert t1.touched_pages == t2.touched_pages


def test_larger_ratio_touches_more_pages():
    small = generate_trace(SMALL, InputSpec(content_id=1, size_ratio=0.5))
    base = generate_trace(SMALL, InputSpec(content_id=1, size_ratio=1.0))
    large = generate_trace(SMALL, InputSpec(content_id=1, size_ratio=3.0))
    assert small.working_set_pages < base.working_set_pages
    assert base.working_set_pages < large.working_set_pages


def test_larger_ratio_computes_longer():
    base = generate_trace(SMALL, InputSpec(content_id=1, size_ratio=1.0))
    large = generate_trace(SMALL, InputSpec(content_id=1, size_ratio=4.0))
    assert large.total_think_us > base.total_think_us


def test_total_think_time_matches_profile():
    trace = generate_trace(SMALL, INPUT_A)
    assert trace.total_think_us == pytest.approx(
        SMALL.compute_base_us, rel=0.01
    )


def test_data_pages_read_sequentially():
    layout = build_layout(SMALL)
    trace = generate_trace(SMALL, INPUT_A)
    data_pages = [
        a.page
        for a in trace.accesses
        if layout.region_of(a.page) == "data"
    ]
    assert len(data_pages) == SMALL.data_read_pages
    assert data_pages == sorted(data_pages)


def test_anon_pages_are_writes_with_nonzero_tokens():
    layout = build_layout(SMALL)
    writes = [
        a
        for a in generate_trace(SMALL, INPUT_A).accesses
        if layout.region_of(a.page) == "heap"
    ]
    assert writes
    for access in writes:
        assert access.write
        assert access.value == content_token(access.page, INPUT_A.content_id)
        assert access.value != 0


def test_freed_pages_are_heap_suffix():
    trace = generate_trace(SMALL, INPUT_A)
    n_alloc = SMALL.anon_pages_at(1.0)
    expected_freed = round(n_alloc * SMALL.anon_free_fraction)
    assert len(trace.freed_pages) == expected_freed
    layout = build_layout(SMALL)
    for page in trace.freed_pages:
        assert layout.region_of(page) == "heap"


def test_test_phase_reuses_freed_heap_pages():
    pair = generate_trace_pair(SMALL, INPUT_A, InputSpec(content_id=2))
    layout = build_layout(SMALL)
    test_heap = {
        a.page
        for a in pair.test.accesses
        if layout.region_of(a.page) == "heap"
    }
    # All freed record pages are reused before any fresh page.
    assert set(pair.record.freed_pages) <= test_heap


def test_larger_test_input_bumps_past_record_heap():
    pair = generate_trace_pair(
        SMALL, INPUT_A, InputSpec(content_id=2, size_ratio=4.0)
    )
    assert pair.test.heap_bump > pair.record.heap_bump


def test_heap_allocation_capped_at_heap_size():
    trace = generate_trace(
        SMALL, InputSpec(content_id=1, size_ratio=1_000_000.0)
    )
    layout = build_layout(SMALL)
    heap_pages = {
        a.page
        for a in trace.accesses
        if layout.region_of(a.page) == "heap"
    }
    assert len(heap_pages) <= layout.heap_pages


def test_core_pages_scattered_over_span():
    offsets = runtime_resident_offsets(SMALL)
    span = SMALL.runtime_span_pages
    assert span >= 4 * len(offsets) * 0.9
    assert max(offsets) < span
    assert len(set(offsets)) == len(offsets)
    # Pages spread across the span, not bunched at the front.
    assert max(offsets) > span * 0.9


def test_clean_snapshot_contents_cover_boot_runtime_data():
    layout = build_layout(SMALL)
    contents = clean_snapshot_contents(SMALL)
    expected = (
        SMALL.boot_pages
        + len(runtime_resident_offsets(SMALL))
        + SMALL.data_pages
    )
    assert len(contents) == expected
    assert all(value != 0 for value in contents.values())
    regions = {layout.region_of(page) for page in contents}
    assert regions == {"boot", "runtime", "data"}


def test_invalid_profiles_rejected():
    with pytest.raises(ValueError):
        WorkloadProfile(
            name="bad",
            description="",
            core_pages=0,
            var_base_pages=0,
            var_pool_pages=0,
        )
    with pytest.raises(ValueError):
        WorkloadProfile(
            name="bad",
            description="",
            core_pages=10,
            var_base_pages=20,
            var_pool_pages=10,
        )
    with pytest.raises(ValueError):
        WorkloadProfile(
            name="bad",
            description="",
            core_pages=10,
            var_base_pages=0,
            var_pool_pages=0,
            data_pages=5,
            data_read_pages=10,
        )


def test_negative_compute_rejected():
    # Synthesis writes think times straight into the run-loop column,
    # which must never hold a negative one.
    with pytest.raises(ValueError, match="compute_base_us"):
        dataclasses.replace(SMALL, compute_base_us=-1.0)


def test_invalid_input_spec_rejected():
    with pytest.raises(ValueError):
        InputSpec(content_id=1, size_ratio=0.0)


def test_input_b_spec():
    b = SMALL.input_b()
    assert b.content_id != INPUT_A.content_id
    assert b.size_ratio == SMALL.input_b_ratio


def test_trace_columns_match_the_accesses():
    pair = generate_trace_pair(SMALL, INPUT_A, SMALL.input_b())
    for trace in (pair.record, pair.test):
        columns = trace.columns
        accesses = trace.accesses
        assert columns.accesses is accesses
        assert columns.pages == [a.page for a in accesses]
        assert columns.writes == [a.write for a in accesses]
        assert columns.values == [a.value for a in accesses]
        assert columns.thinks == [max(a.think_us, 0.0) for a in accesses]
        stores = [i for i, a in enumerate(accesses) if a.write]
        assert stores and list(columns.stores) == stores
        # Every access to a stored page is a store in these traces.
        stored = {a.page for a in accesses if a.write}
        assert columns.positions(stored, 0, len(accesses)) == stores
        assert columns.positions(stored, 10, stores[-1]) == [
            i for i in stores if 10 <= i < stores[-1]
        ]


def test_trace_columns_round_trip_through_accesses():
    pair = generate_trace_pair(SMALL, INPUT_A, SMALL.input_b())
    for trace in (pair.record, pair.test):
        accesses = trace.accesses
        assert all(type(a) is GuestAccess for a in accesses)
        again = TraceColumns.of(accesses)
        assert again == trace.columns
        assert list(again.stores) == list(trace.columns.stores)
        assert again.accesses is accesses
        assert TraceColumns.of(list(accesses)).accesses == accesses
    # Trace equality compares contents: a trace synthesized afresh
    # equals the memoised one.
    workloads_base._TRACE_CACHE.clear()
    assert generate_trace(SMALL, INPUT_A) == pair.record
    assert generate_trace(SMALL, INPUT_A) is not pair.record


HAND_WRITTEN = [
    GuestAccess(page=1, write=True, value=11, think_us=-2.0),
    GuestAccess(page=2, think_us=0.5),
    GuestAccess(page=3, write=True),
    GuestAccess(page=4, write=True, value=14, think_us=0.0),
]


def test_trace_columns_of_a_hand_written_list():
    columns = TraceColumns.of(HAND_WRITTEN)
    assert columns.accesses is HAND_WRITTEN
    assert columns.pages == [1, 2, 3, 4]
    assert columns.writes == [True, False, True, True]
    assert columns.values == [11, None, None, 14]
    # Non-positive think times fold to 0.0: nothing to wait for.
    assert columns.thinks == [0.0, 0.5, 0.0, 0.0]
    assert list(columns.stores) == [0, 2, 3]


@pytest.mark.parametrize("batch", [True, False])
@pytest.mark.parametrize("as_columns", [True, False])
def test_valueless_store_raises_at_that_store(batch, as_columns):
    env = Environment()
    device = BlockDevice(
        env, DeviceSpec("d", 100.0, 10.0, 1589.0, 285_000, queue_depth=16)
    )
    snapshot = create_snapshot(
        FileStore(env, device), "fn", 64, {p: p + 100 for p in range(8)}
    )
    vm = MicroVM(
        env, HostParams(), VmmParams(), PageCache(env), 64, batch_faults=batch
    )
    env.run(until=env.process(vm.restore(snapshot)))
    trace = TraceColumns.of(HAND_WRITTEN) if as_columns else HAND_WRITTEN
    with pytest.raises(SimulationError, match="requires a value"):
        env.run(until=env.process(vm.vcpu.run_trace(trace)))
    # The store before the valueless one landed, the one after did not.
    assert vm.handler.observed_value(1) == 11
    assert vm.handler.observed_value(4) == 104


def test_sanitized_record_columns_extend_the_record_trace():
    trace = generate_trace(SMALL, INPUT_A)
    assert trace.freed_pages
    listed = TraceColumns.of(
        list(trace.accesses)
        + [
            GuestAccess(
                page=page, write=True, value=0, think_us=_SANITIZE_WRITE_US
            )
            for page in trace.freed_pages
        ]
    )
    sanitized = sanitized_columns(trace)
    assert sanitized == listed
    assert list(sanitized.stores) == list(listed.stores)
    # The record trace's own columns are left as they were.
    assert len(trace.columns.pages) == len(trace.accesses)


def test_trace_columns_die_with_their_trace():
    # No cache outside the trace may keep its columns (or the trace)
    # alive once the trace memo lets go of it.
    profile = dataclasses.replace(SMALL, name="lifetime-probe")
    pair = generate_trace_pair(profile, INPUT_A, profile.input_b())
    refs = [
        weakref.ref(obj)
        for trace in (pair.record, pair.test)
        for obj in (trace, trace.columns)
    ]
    del pair
    workloads_base._TRACE_CACHE.clear()
    gc.collect()
    assert [ref() for ref in refs] == [None] * 4
