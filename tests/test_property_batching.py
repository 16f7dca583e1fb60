"""Property-based tests for the fault fast-path batching.

The batched vCPU must be observationally equivalent to the per-event
path for *arbitrary* traces, not just the paper's workloads: same
fault records (bit-identical floats), same fault-log rows, same finish
time, same final address-space, page-cache and device state.
Hypothesis drives random mixes of file-backed reads/writes, anonymous
touches, repeats and think time through both paths and compares
everything. Each path's fault log is also absorbed into a fresh
telemetry bundle, and the column fold must equal a reference fold
over the log's records, one record at a time.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reap import make_reap_fault_handler
from repro.host import HostParams, PageCache
from repro.host.fault import (
    FAULTING_KINDS,
    FaultHandler,
    FaultKind,
    FaultRecord,
    FaultStats,
)
from repro.host.uffd import UserfaultfdManager
from repro.host.vma import AddressSpace
from repro.metrics.telemetry import HostTelemetry, MetricsRegistry
from repro.sim import Environment
from repro.storage import BlockDevice, DeviceSpec, FileStore
from repro.vm import create_snapshot
from repro.vm.vcpu import GuestAccess, VCpu

HOST = HostParams()

#: File-backed pages [0, FILE_PAGES) then anonymous pages up to TOTAL.
FILE_PAGES = 48
TOTAL_PAGES = 96


def _device(env):
    return BlockDevice(
        env, DeviceSpec("d", 100.0, 10.0, 1589.0, 285_000, queue_depth=16)
    )


def _build_file_backed(file_pages, sparse):
    env = Environment()
    store = FileStore(env, _device(env))
    cache = PageCache(env)
    file = store.create("mem", FILE_PAGES, pages=file_pages, sparse=sparse)
    space = AddressSpace(TOTAL_PAGES)
    space.mmap_file(0, FILE_PAGES, file, 0)
    space.mmap_anonymous(FILE_PAGES, TOTAL_PAGES - FILE_PAGES)
    handler = FaultHandler(env, HOST, cache, space)
    return env, handler, file.device


def _build_uffd(file_pages):
    env = Environment()
    store = FileStore(env, _device(env))
    cache = PageCache(env)
    snapshot = create_snapshot(store, "fn", FILE_PAGES, file_pages)
    space = AddressSpace(TOTAL_PAGES)
    uffd = UserfaultfdManager(env, HOST)
    uffd.register(
        0, FILE_PAGES, make_reap_fault_handler(env, HOST, cache, snapshot)
    )
    handler = FaultHandler(env, HOST, cache, space, uffd=uffd)
    handler.io_device = snapshot.memory_file.device
    return env, handler, snapshot.memory_file.device


def _rows(records):
    return tuple(
        (
            r.kind,
            r.page,
            r.start_us,
            r.duration_us,
            r.block_requests,
            r.bytes_read,
        )
        for r in records
    )


def _reference_fold(telemetry, records):
    """The per-record absorb: one histogram observation per fault,
    per-kind totals in first-seen order, cache hits/misses/waits."""
    totals = {}
    hits = misses = shared = 0
    for record in records:
        kind = record.kind
        if kind is FaultKind.NONE:
            continue
        telemetry.fault_time.observe(record.duration_us)
        agg = totals.get(kind)
        if agg is None:
            totals[kind] = [1, record.duration_us]
        else:
            agg[0] += 1
            agg[1] += record.duration_us
        if kind is FaultKind.MINOR:
            hits += 1
        elif kind is FaultKind.MAJOR:
            if record.block_requests > 0:
                misses += 1
            else:
                shared += 1
    for kind, (count, total_us) in totals.items():
        name = f"{telemetry.root}.fault.{kind.value}"
        telemetry.registry.counter(name).value += count
        telemetry.profiler.add(f"fault.{kind.value}", total_us, count)
    telemetry.cache_hits.value += hits
    telemetry.cache_misses.value += misses
    telemetry.cache_shared_waits.value += shared


def _telemetry_view(telemetry):
    histogram = telemetry.fault_time
    return (
        [(name, c.value) for name, c in telemetry.registry.counters()],
        list(histogram.histogram.counts),
        histogram.sum,
        [
            (name, stat.time_us, stat.events)
            for name, stat in telemetry.profiler.components().items()
        ],
    )


def _check_absorb(log):
    """Absorbing ``log`` twice (the second time onto existing
    counters) must match the reference fold of its records."""
    columns = HostTelemetry(MetricsRegistry(), "host0")
    reference = HostTelemetry(MetricsRegistry(), "host0")
    for _ in range(2):
        columns.absorb_fault_records(log)
        _reference_fold(reference, log.records)
    assert _telemetry_view(columns) == _telemetry_view(reference)


def _observe(env, handler, device, result):
    """Everything the two paths must agree on."""
    _check_absorb(handler.stats)
    space = handler.space
    return (
        result.started_us,
        result.finished_us,
        env.now,
        _rows(result.records),
        _rows(handler.stats.records),
        sorted(space.pte.items()),
        sorted(space.anon_contents.items()),
        sorted(space.ept),
        sorted(handler.cache.resident_set()),
        device.stats.requests,
        device.stats.sequential_requests,
        device.stats.bytes_read,
        device.stats.busy_time_us,
        tuple(device.stats.per_request_sizes),
    )


def _trace(raw, page_limit):
    return [
        GuestAccess(
            page=page % page_limit,
            write=write,
            value=(page % page_limit) + 7 if write else None,
            think_us=think,
        )
        for page, write, think in raw
    ]


accesses = st.lists(
    st.tuples(
        st.integers(0, TOTAL_PAGES - 1),
        st.booleans(),
        st.sampled_from([0.0, 0.5, 3.25]),
    ),
    max_size=50,
)

file_contents = st.dictionaries(
    st.integers(0, FILE_PAGES - 1), st.integers(1, 9), max_size=FILE_PAGES
)


@settings(max_examples=60, deadline=None)
@given(file_contents, st.booleans(), accesses)
def test_batched_trace_matches_event_path(file_pages, sparse, raw):
    trace = _trace(raw, TOTAL_PAGES)
    seen = []
    for batch in (False, True):
        env, handler, device = _build_file_backed(file_pages, sparse)
        vcpu = VCpu(env, handler, batch_faults=batch)
        result = env.run(
            until=env.process(vcpu.run_trace(trace, tail_think_us=1.0))
        )
        seen.append(_observe(env, handler, device, result))
    assert seen[0] == seen[1]


@settings(max_examples=40, deadline=None)
@given(file_contents, accesses)
def test_batched_uffd_faults_match_event_path(file_pages, raw):
    # Every page is userfaultfd-registered (REAP's out-of-working-set
    # situation), exercising the synchronous delegation twin.
    trace = _trace(raw, FILE_PAGES)
    seen = []
    delegated = []
    for batch in (False, True):
        env, handler, device = _build_uffd(file_pages)
        vcpu = VCpu(env, handler, batch_faults=batch)
        result = env.run(
            until=env.process(vcpu.run_trace(trace, tail_think_us=1.0))
        )
        seen.append(_observe(env, handler, device, result))
        delegated.append(handler.uffd.delegated_faults)
    assert seen[0] == seen[1]
    assert delegated[0] == delegated[1]


io_kinds = (FaultKind.MAJOR, FaultKind.UFFD)

fault_rows = st.lists(
    st.tuples(
        st.sampled_from(sorted(FAULTING_KINDS, key=lambda k: k.value)),
        st.integers(0, TOTAL_PAGES - 1),
        st.floats(0.0, 1e6, allow_nan=False),
        st.floats(0.0, 600.0, allow_nan=False),
        st.integers(0, 3),
        st.integers(0, 1 << 20),
    ),
    max_size=60,
)


@settings(max_examples=80, deadline=None)
@given(fault_rows)
def test_absorb_matches_reference_fold_on_any_log(rows):
    # Logs no single-vCPU trace produces: any kind order, arbitrary
    # durations, and MAJOR rows without block requests (the shared
    # wait on another thread's read).
    log = FaultStats()
    records = [
        FaultRecord(kind, page, start, duration, requests, nbytes)
        if kind in io_kinds
        else FaultRecord(kind, page, start, duration)
        for kind, page, start, duration, requests, nbytes in rows
    ]
    for record in records:
        log.add(record)
    assert log.records == records
    _check_absorb(log)
