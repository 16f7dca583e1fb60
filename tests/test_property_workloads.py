"""Property-based tests over the workload trace generator."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vm.layout import GuestLayout
from repro.workloads.base import (
    InputSpec,
    WorkloadProfile,
    build_layout,
    clean_snapshot_contents,
    generate_trace,
    generate_trace_pair,
)


@st.composite
def profiles(draw):
    core = draw(st.integers(min_value=10, max_value=400))
    pool = draw(st.integers(min_value=0, max_value=600))
    var_base = draw(st.integers(min_value=0, max_value=pool))
    data = draw(st.integers(min_value=0, max_value=300))
    data_read = draw(st.integers(min_value=0, max_value=data))
    anon = draw(st.integers(min_value=0, max_value=300))
    free_frac = draw(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
    )
    spread = draw(st.floats(min_value=1.5, max_value=8.0))
    return WorkloadProfile(
        name=f"prop-{core}-{pool}-{var_base}-{data}-{anon}",
        description="hypothesis-generated profile",
        core_pages=core,
        var_base_pages=var_base,
        var_pool_pages=pool,
        data_pages=data,
        data_read_pages=data_read,
        anon_base_pages=anon,
        anon_free_fraction=free_frac,
        compute_base_us=draw(
            st.floats(min_value=100.0, max_value=50_000.0)
        ),
        spread_factor=spread,
        total_pages=32_768,
        boot_pages=1_024,
    )


inputs = st.builds(
    InputSpec,
    content_id=st.integers(min_value=1, max_value=50),
    size_ratio=st.floats(min_value=0.1, max_value=8.0, allow_nan=False),
)


@given(profiles(), inputs)
@settings(max_examples=50, deadline=None)
def test_trace_pages_stay_inside_guest_memory(profile, spec):
    layout = build_layout(profile)
    trace = generate_trace(profile, spec)
    for access in trace.accesses:
        assert 0 <= access.page < layout.total_pages
        # Invocations never touch the boot region.
        assert layout.region_of(access.page) != "boot"


@given(profiles(), inputs)
@settings(max_examples=50, deadline=None)
def test_trace_think_time_is_nonnegative_and_totals_compute(profile, spec):
    trace = generate_trace(profile, spec)
    assert all(a.think_us >= 0 for a in trace.accesses)
    assert trace.tail_think_us >= 0
    expected = profile.compute_us_at(spec.size_ratio)
    total = sum(trace.columns.thinks) + trace.tail_think_us
    assert abs(total - expected) / expected < 0.02


@given(profiles(), inputs)
@settings(max_examples=50, deadline=None)
def test_writes_carry_values_and_reads_do_not(profile, spec):
    trace = generate_trace(profile, spec)
    for access in trace.accesses:
        if access.write:
            assert access.value is not None
        else:
            assert access.value is None


@given(profiles(), inputs)
@settings(max_examples=50, deadline=None)
def test_freed_pages_are_touched_heap_pages(profile, spec):
    layout = build_layout(profile)
    trace = generate_trace(profile, spec)
    touched = trace.touched_pages
    for page in trace.freed_pages:
        assert page in touched
        assert layout.region_of(page) == "heap"
    assert len(set(trace.freed_pages)) == len(trace.freed_pages)


@given(profiles(), inputs, inputs)
@settings(max_examples=40, deadline=None)
def test_pair_heap_continuity(profile, record_spec, test_spec):
    pair = generate_trace_pair(profile, record_spec, test_spec)
    layout = build_layout(profile)
    record_heap = {
        a.page
        for a in pair.record.accesses
        if layout.region_of(a.page) == "heap"
    }
    test_heap = {
        a.page
        for a in pair.test.accesses
        if layout.region_of(a.page) == "heap"
    }
    # Heap reuse: freed record pages come first; fresh pages start at
    # the record bump, never inside the untouched-but-kept record
    # range.
    kept = record_heap - set(pair.record.freed_pages)
    fresh_test = test_heap - set(pair.record.freed_pages)
    assert not (fresh_test & kept)
    assert pair.test.heap_bump >= pair.record.heap_bump


@given(profiles())
@settings(max_examples=40, deadline=None)
def test_clean_snapshot_within_guest_and_nonzero(profile):
    layout = build_layout(profile)
    contents = clean_snapshot_contents(profile)
    for page, value in contents.items():
        assert 0 <= page < layout.total_pages
        assert value != 0
        assert layout.region_of(page) != "heap"


@given(profiles(), st.integers(min_value=1, max_value=50))
@settings(max_examples=40, deadline=None)
def test_working_set_monotonic_in_ratio(profile, content):
    small = generate_trace(profile, InputSpec(content, size_ratio=0.5))
    large = generate_trace(profile, InputSpec(content, size_ratio=4.0))
    assert large.working_set_pages >= small.working_set_pages
