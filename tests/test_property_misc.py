"""Property-based tests: page cache, loader coalescing, working sets,
histograms, and the simulation clock."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.loader import coalesce_ordered_pages
from repro.core.working_set import ReapWorkingSet, WorkingSetGroups
from repro.host import PageCache
from repro.metrics.stats import Histogram, fault_time_histogram
from repro.sim import Environment


# -- page cache ---------------------------------------------------------


@given(st.lists(st.integers(0, 50), min_size=1, max_size=100))
def test_page_cache_insert_is_idempotent_in_contents(pages):
    cache = PageCache(Environment())
    for page in pages:
        cache.insert("f", page)
    assert set(cache.pages_for_file("f")) == set(pages)
    assert cache.count_for_file("f") == len(set(pages))


@given(st.lists(st.integers(0, 50), min_size=1, max_size=100))
def test_insertion_log_superset_of_resident(pages):
    cache = PageCache(Environment())
    log = cache.watch("f")
    for page in pages:
        cache.insert("f", page)
        cache.insert("g", page)
    assert set(cache.pages_for_file("f")) <= set(log)
    # Only the watched file is logged, and only while watched.
    assert list(cache.watches) == ["f"]
    cache.unwatch("f")
    cache.insert("f", max(pages) + 1)
    assert cache.watches == {}
    # First occurrences appear in insertion order.
    firsts = []
    seen = set()
    for page in pages:
        if page not in seen:
            seen.add(page)
            firsts.append(page)
    assert log == firsts


# -- loader coalescing -------------------------------------------------


@given(
    st.lists(st.integers(0, 2000), min_size=1, max_size=300),
    st.integers(min_value=0, max_value=64),
    st.integers(min_value=1, max_value=128),
)
def test_coalesced_units_cover_every_page(pages, gap, chunk):
    units = coalesce_ordered_pages(pages, coalesce_gap=gap, chunk_pages=chunk)
    covered = set()
    for start, npages in units:
        assert 1 <= npages
        covered.update(range(start, start + npages))
    assert set(pages) <= covered


@given(st.lists(st.integers(0, 2000), min_size=1, max_size=300))
def test_coalescing_with_zero_gap_reads_only_requested_pages(pages):
    units = coalesce_ordered_pages(pages, coalesce_gap=0, chunk_pages=10**9)
    covered = set()
    for start, npages in units:
        covered.update(range(start, start + npages))
    assert covered == set(pages)


# -- working sets -----------------------------------------------------------


@given(
    st.lists(
        st.lists(st.integers(0, 500), max_size=60), max_size=8
    ),
    st.integers(min_value=1, max_value=64),
)
def test_working_set_groups_are_contiguous_and_bounded(batches, group_pages):
    ws = WorkingSetGroups.from_batches(batches, group_pages=group_pages)
    all_pages = {p for batch in batches for p in batch}
    assert set(ws.group_of) == all_pages
    if ws.group_of:
        groups = sorted(set(ws.group_of.values()))
        assert groups == list(range(1, len(groups) + 1))
        for group in groups:
            assert 1 <= len(ws.pages_of_group(group)) <= group_pages


@given(st.lists(st.integers(0, 100), max_size=300))
def test_reap_ws_preserves_first_occurrence_order(pages):
    ws = ReapWorkingSet.from_fault_pages(pages)
    assert len(ws.pages_in_fault_order) == len(set(pages))
    seen = set()
    expected = []
    for page in pages:
        if page not in seen:
            seen.add(page)
            expected.append(page)
    assert ws.pages_in_fault_order == expected


# -- histograms -------------------------------------------------------------


@given(st.lists(st.floats(min_value=0.01, max_value=10_000), max_size=500))
def test_histogram_counts_every_value_once(values):
    histogram = fault_time_histogram(values)
    assert histogram.total == len(values)


@given(
    st.lists(st.floats(min_value=0, max_value=100), min_size=2, max_size=500)
)
def test_histogram_bucket_membership(values):
    histogram = Histogram(edges=[0.0, 10.0, 50.0])
    histogram.add_all(values)
    low = sum(1 for v in values if v < 10)
    mid = sum(1 for v in values if 10 <= v < 50)
    high = sum(1 for v in values if v >= 50)
    assert histogram.counts == [low, mid, high]


# -- simulation clock ----------------------------------------------------


@given(st.lists(st.floats(min_value=0.0, max_value=1000.0), max_size=30))
def test_clock_is_monotonic_over_arbitrary_timeouts(delays):
    env = Environment()
    observed = []

    def proc():
        for delay in delays:
            yield env.timeout(delay)
            observed.append(env.now)

    env.process(proc())
    env.run()
    assert observed == sorted(observed)
    if delays:
        assert observed[-1] == sum(delays)
