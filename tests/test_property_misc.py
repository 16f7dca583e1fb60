"""Property-based tests: page cache, page fills, loader coalescing,
working sets, histograms, and the simulation clock."""

from array import array
from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.loader import (
    LoaderStats,
    coalesce_ordered_pages,
    ordered_pages_loader,
)
from repro.core.working_set import ReapWorkingSet, WorkingSetGroups
from repro.host import HostParams, PageCache
from repro.host.readahead import ReadaheadPolicy
from repro.metrics.stats import FIGURE2_EDGES, Histogram, fault_time_histogram
from repro.metrics.telemetry import HistogramInstrument
from repro.sim import Environment
from repro.storage import BlockDevice, DeviceSpec, FileStore
from repro.storage.errors import DeviceError


# -- page cache ---------------------------------------------------------


@given(st.lists(st.integers(0, 50), min_size=1, max_size=100))
def test_page_cache_insert_is_idempotent_in_contents(pages):
    cache = PageCache(Environment())
    for page in pages:
        cache.insert_range("f", page, 1)
    assert cache.resident_set() == {("f", page) for page in pages}
    assert cache.count_for_file("f") == len(set(pages))


@given(st.lists(st.integers(0, 50), min_size=1, max_size=100))
def test_insertion_log_superset_of_resident(pages):
    cache = PageCache(Environment())
    log = cache.watch("f").pages
    for page in pages:
        cache.insert_range("f", page, 1)
        cache.insert_range("g", page, 1)
    assert {page for name, page in cache.resident_set() if name == "f"} <= set(log)
    # Only the watched file is logged, and only while watched.
    assert list(cache.watches) == ["f"]
    cache.unwatch("f")
    cache.insert_range("f", max(pages) + 1, 1)
    assert cache.watches == {}
    # First occurrences appear in insertion order.
    firsts = []
    seen = set()
    for page in pages:
        if page not in seen:
            seen.add(page)
            firsts.append(page)
    assert log == firsts


# -- page fills: the loader and fault readahead on one file -------------

FILL_PAGES = 48


class _FillLog:
    """Forwards to the page cache, logging each :meth:`PageCache.fill`
    one caller makes: ``(start, npages, runs, extents)``, with extents
    ``None`` for a fill whose read failed."""

    def __init__(self, cache):
        self._cache = cache
        self.fills = []

    def __getattr__(self, name):
        return getattr(self._cache, name)

    def fill(self, file, start, npages, runs):
        entry = [start, npages, list(runs), None]
        self.fills.append(entry)
        entry[3] = yield from self._cache.fill(file, start, npages, runs)
        return entry[3]


_units = st.lists(
    st.integers(0, FILL_PAGES - 1).flatmap(
        lambda start: st.tuples(
            st.just(start), st.integers(1, min(16, FILL_PAGES - start))
        )
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=80, deadline=None)
@given(
    sparse=st.booleans(),
    data_pages=st.sets(st.integers(0, FILL_PAGES - 1), max_size=FILL_PAGES),
    units=_units,
    resident=_units,
    faults=st.lists(
        st.tuples(
            st.integers(0, FILL_PAGES - 1),
            st.sampled_from([0.0, 50.0, 140.0, 400.0]),
        ),
        max_size=3,
    ),
    waiters=st.lists(
        st.tuples(
            st.integers(0, FILL_PAGES - 1),
            st.sampled_from([0.0, 1.0, 142.0, 300.0]),
        ),
        max_size=4,
    ),
    fail_at=st.none() | st.integers(0, 6),
)
# The loader's second chunk starts at 141.2 us: the fault on page 20
# checked it at 140 and fills it at 144, after a waiter made the
# loader's completion event at 142 — that event must survive.
@example(
    sparse=False,
    data_pages=set(),
    units=[(0, 16), (16, 16)],
    resident=[],
    faults=[(20, 140.0)],
    waiters=[(20, 142.0)],
    fail_at=None,
)
def test_fill_reads_each_unit_once_and_leaves_nothing_in_flight(
    sparse, data_pages, units, resident, faults, waiters, fail_at
):
    env = Environment()
    device = BlockDevice(
        env, DeviceSpec("d", 100.0, 10.0, 1589.0, 285_000, queue_depth=16)
    )
    file = FileStore(env, device).create(
        "mem", FILL_PAGES, pages={p: p + 1 for p in data_pages}, sparse=sparse
    )
    cache = PageCache(env)
    for start, npages in resident[: len(resident) // 2]:
        cache.insert_range("mem", start, npages)
    inserted = cache.watch("mem").pages

    # Device requests that completed; the ``fail_at``-th one fails.
    completed = []
    issued = [0]
    device_read = device.read

    def read(offset, nbytes):
        issued[0] += 1
        if issued[0] - 1 == fail_at:
            yield env.timeout(1.0)
            raise DeviceError("d", offset, nbytes)
        elapsed = yield from device_read(offset, nbytes)
        completed.append((offset, nbytes))
        return elapsed

    device.read = read

    loader_view = _FillLog(cache)
    fault_view = _FillLog(cache)
    stats = LoaderStats()
    params = HostParams()
    readahead = ReadaheadPolicy(params)
    processes = [
        env.process(ordered_pages_loader(env, loader_view, file, units, stats))
    ]

    def fault(page, at):
        # The fault handler's major fault: a page neither resident nor
        # in flight is read after the kernel's fault overhead, by when
        # another reader may have announced it.
        yield env.timeout(at)
        if cache.contains("mem", page) or cache.has_pending("mem", page):
            return
        yield env.timeout(params.major_fault_overhead_us)
        try:
            yield from readahead.fault_read(file, fault_view, page)
        except DeviceError:
            pass

    def waiter(page, at):
        yield env.timeout(at)
        event = cache.pending_event("mem", page)
        if event is not None:
            yield event

    processes += [env.process(fault(page, at)) for page, at in faults]
    processes += [env.process(waiter(page, at)) for page, at in waiters]
    env.run()

    # Every process ended: no waiter sleeps on a read nobody completes,
    # and no page is left in flight.
    assert not any(process.is_alive for process in processes)
    assert not any(cache.has_pending("mem", p) for p in range(FILL_PAGES))

    # Each completed fill read exactly its range's extents; the device
    # saw those requests plus, for a failed fill, a prefix of its own.
    fills = loader_view.fills + fault_view.fills
    for start, npages, _, extents in fills:
        if extents is not None:
            assert extents == file.extents(start, npages)
    done = Counter(
        extent for _, _, _, extents in fills if extents for extent in extents
    )
    leftover = Counter(completed) - done
    assert not done - Counter(completed)
    failed = [entry for entry in fills if entry[3] is None]
    assert len(failed) <= 1
    if failed:
        start, npages, _, _ = failed[0]
        prefix = file.extents(start, npages)[: sum(leftover.values())]
        assert leftover == Counter(prefix)
    else:
        assert not leftover

    # The loader's fills are its units, in order (a unit with nothing
    # missing is skipped), and its stats count exactly its own reads.
    remaining = iter(units)
    for start, npages, _, _ in loader_view.fills:
        assert (start, npages) in remaining
    own = [e for f in loader_view.fills if f[3] for e in f[3]]
    assert stats.requests == len(own)
    assert stats.bytes_read == sum(n for _, n in own)
    assert stats.errors == (
        1 if any(f[3] is None for f in loader_view.fills) else 0
    )

    # The pages newly inserted are exactly those the completed fills
    # brought in, each inserted once; pages_fetched counts each page
    # of the loader's completed fills once.
    def pages(view):
        return [
            page
            for _, _, runs, extents in view.fills
            if extents is not None
            for run, end in runs
            for page in range(run, end)
        ]

    loaded = pages(loader_view)
    assert len(inserted) == len(set(inserted))
    assert set(inserted) == set(loaded) | set(pages(fault_view))
    assert len(loaded) == len(set(loaded)) == stats.pages_fetched
    if fail_at is None:
        for start, npages in units:
            assert all(
                cache.contains("mem", p) for p in range(start, start + npages)
            )


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
        sizes = Counter(ws.group_of.values())
        assert all(1 <= sizes[group] <= group_pages for group in groups)


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


_FAULT_EDGES = list(FIGURE2_EDGES)


@given(
    st.lists(
        st.one_of(
            st.sampled_from(_FAULT_EDGES),
            st.sampled_from([-1.0, 0.0, _FAULT_EDGES[0] / 2]),
            st.floats(min_value=_FAULT_EDGES[-1], max_value=1e9),
            st.floats(
                min_value=-1e3, max_value=1e6, allow_nan=False, width=32
            ),
        ),
        max_size=300,
    ),
    st.booleans(),
)
def test_observe_all_equals_one_observe_per_value(values, as_array):
    batched = HistogramInstrument("batched", _FAULT_EDGES)
    looped = HistogramInstrument("looped", _FAULT_EDGES)
    batched.sum = looped.sum = 0.1
    batched.observe_all(array("d", values) if as_array else values)
    for value in values:
        looped.observe(value)
    assert batched.histogram.counts == looped.histogram.counts
    assert batched.sum.hex() == looped.sum.hex()


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
