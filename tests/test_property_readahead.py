"""Properties of the readahead window path.

A MAJOR fault's window runs one of two ways: quoted ahead and
committed (:meth:`ReadaheadPolicy.quote`, :meth:`WindowRead.commit`,
the batched fault path) or read on the event heap
(:meth:`ReadaheadPolicy.fault_read`). Both must leave the same
simulated state behind, float for float. The page cache's interval
runs (:class:`_IntervalRuns`) must behave like a set of pages.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.host import HostParams, PageCache
from repro.host.page_cache import _IntervalRuns
from repro.host.readahead import ReadaheadPolicy
from repro.sim import Environment
from repro.storage import BlockDevice, DeviceSpec, FileStore
from repro.storage.filestore import PAGE_SIZE

FILE_PAGES = 96
#: The file sits after a 16-page neighbour, so its device offsets are
#: not page indices.
BASE_PAGES = 16
PARAMS = HostParams(readahead_pages=8, readahead_max_pages=64)

_runs = st.lists(
    st.tuples(st.integers(0, FILE_PAGES - 1), st.integers(1, 12)), max_size=6
)


def _rig(sparse, data_pages, resident, in_flight, stream, cursor):
    env = Environment()
    device = BlockDevice(
        env, DeviceSpec("d", 100.0, 10.0, 1589.0, 285_000, queue_depth=16)
    )
    store = FileStore(env, device)
    store.create("neighbour", BASE_PAGES)
    if data_pages is None:
        pages = {p: p + 1 for p in range(FILE_PAGES)}
    else:
        pages = {p: p + 1 for p in data_pages}
    file = store.create("mem", FILE_PAGES, pages=pages, sparse=sparse)
    cache = PageCache(env)
    for start, npages in resident:
        cache.insert_range("mem", start, min(npages, FILE_PAGES - start))
    for page in in_flight:
        if not cache.contains("mem", page):
            cache.begin_pending("mem", page)
    policy = ReadaheadPolicy(PARAMS)
    if stream is not None:
        policy.commit("mem", *stream)
    if cursor is not None:
        device._next_sequential_offset = file.base_offset + cursor * PAGE_SIZE
    watch = cache.watch("mem")
    # Each split of a page range into device requests, as computed.
    extents = []
    split = file.extents

    def recorded(page_index, npages):
        extents.append(split(page_index, npages))
        return extents[-1]

    file.extents = recorded
    return env, device, file, cache, policy, watch, extents


def _state(env_end, read, rig):
    _, device, _, cache, policy, watch, extents = rig
    runs = cache._runs.get("mem")
    return {
        "end": env_end,
        "extents": extents,
        "window": (read.start, read.npages, read.size),
        "io": (read.requests, read.nbytes),
        "stats": device.stats,
        "cursor": device._next_sequential_offset,
        "runs": (runs.starts, runs.ends, runs.count),
        "insertions": cache.insertions,
        "pending": sorted(cache._pending),
        "streams": policy._streams,
        "watch": (watch.pages, watch.instants.tolist(), watch.drops),
    }


@settings(max_examples=150, deadline=None)
@given(
    sparse=st.booleans(),
    data_pages=st.none()
    | st.sets(st.integers(0, FILE_PAGES - 1), max_size=FILE_PAGES),
    resident=_runs,
    in_flight=st.sets(st.integers(0, FILE_PAGES - 1), max_size=6),
    stream=st.none()
    | st.tuples(st.integers(0, FILE_PAGES), st.sampled_from([8, 16, 32, 64])),
    cursor=st.none() | st.integers(0, FILE_PAGES),
    fault_page=st.integers(0, FILE_PAGES - 1),
    start=st.floats(0.0, 5_000.0, allow_nan=False),
)
# (999.9 + 100) + 8 * 4096 / 1589 is not 999.9 + (100 + 8 * 4096 / 1589):
# each leg of a request lands on the clock on its own.
@example(
    sparse=False,
    data_pages=None,
    resident=[],
    in_flight=set(),
    stream=None,
    cursor=None,
    fault_page=0,
    start=999.9,
)
# Page 1 is resident: the window is the faulting page alone.
@example(
    sparse=True,
    data_pages=None,
    resident=[(1, 3)],
    in_flight=set(),
    stream=None,
    cursor=None,
    fault_page=0,
    start=0.0,
)
def test_quoted_window_matches_the_event_path(
    sparse, data_pages, resident, in_flight, stream, cursor, fault_page, start
):
    """A fault's window, quoted and committed, leaves the state the
    event path's ``fault_read`` leaves: the end instant, the window, its
    extents, each request's service time, its requests and bytes, every
    device statistic and the device cursor, the cache runs, the stream
    state and the watch log."""
    args = (sparse, data_pages, resident, in_flight, stream, cursor)
    rig = _rig(*args)
    env, device, file, cache, policy = rig[:5]
    # The fault path reads only a page that is neither resident nor in
    # flight.
    if cache.contains("mem", fault_page) or cache.has_pending("mem", fault_page):
        return
    # The window, page by page: the base size, or the previous one
    # doubled for a fault at or just past its end, cut at the file end
    # and at the first resident or in-flight page.
    size = PARAMS.readahead_pages
    if stream is not None and stream[0] <= fault_page <= stream[0] + 4:
        size = min(stream[1] * 2, PARAMS.readahead_max_pages)
    end = fault_page + 1
    while (
        end < min(FILE_PAGES, fault_page + size)
        and not cache.contains("mem", end)
        and not cache.has_pending("mem", end)
    ):
        end += 1
    # Its device requests: one per run of data pages of a sparse file.
    runs = []
    for page in range(fault_page, end):
        if file.sparse and not file.pages.get(page):
            continue
        if runs and runs[-1][1] == page:
            runs[-1][1] = page + 1
        else:
            runs.append([page, page + 1])
    base = file.base_offset
    assert device.can_read_immediately()
    quoted = policy.quote(file, cache, fault_page, start)
    assert (quoted.npages, quoted.size) == (end - fault_page, size)
    assert rig[-1] == [
        [(base + a * PAGE_SIZE, (b - a) * PAGE_SIZE) for a, b in runs]
    ]
    quoted.commit(cache)
    expected = _state(quoted.end, quoted, rig)
    expected["elapsed"] = [elapsed for _, _, elapsed in quoted.quote[1]]

    rig = _rig(*args)
    env, device, file, cache, policy = rig[:5]
    reads = []
    elapsed = []
    device_read = device.read

    def timed_read(offset, nbytes):
        elapsed.append((yield from device_read(offset, nbytes)))

    device.read = timed_read

    def fault():
        yield env.wake_at(start)
        reads.append((yield from policy.fault_read(file, cache, fault_page)))

    env.run(until=env.process(fault()))
    actual = _state(env.now, reads[0], rig)
    actual["elapsed"] = elapsed
    assert actual == expected


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 60), st.integers(1, 10)),
        min_size=1,
        max_size=25,
    )
)
def test_add_range_matches_a_page_set(ranges):
    """``add_range`` returns the newly covered sub-ranges a per-page set
    would add, keeps the page count, and leaves the runs canonical:
    sorted, disjoint and non-adjacent."""
    runs = _IntervalRuns()
    pages = set()
    for start, npages in ranges:
        end = start + npages
        fresh = [p for p in range(start, end) if p not in pages]
        expected = []
        for page in fresh:
            if expected and expected[-1][1] == page:
                expected[-1] = (expected[-1][0], page + 1)
            else:
                expected.append((page, page + 1))
        assert runs.add_range(start, end) == expected
        pages.update(fresh)
        assert runs.count == len(pages)
        bounds = list(zip(runs.starts, runs.ends))
        covered = [p for s, e in bounds for p in range(s, e)]
        assert covered == sorted(pages)
        assert all(s < e for s, e in bounds)
        assert all(e < s for (_, e), (s, _) in zip(bounds, bounds[1:]))
