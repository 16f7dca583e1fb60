"""Property-based tests for the fault fast-path batching.

The batched vCPU must be observationally equivalent to the per-event
path for *arbitrary* traces, not just the paper's workloads: same
fault-log rows (bit-identical floats), same finish time, same final
address-space, page-cache and device state.
Hypothesis drives random mixes of file-backed reads/writes, anonymous
touches, repeats and think time through both paths and compares
everything. Each path's fault log is also absorbed into a fresh
telemetry bundle, and the column fold must equal a reference fold
over the log's records, one record at a time.

Each test also draws the settings that end a batched run of accesses
early: a host CPU slot (every run is one access, as think time must
contend), fault-cost jitter (the per-kind cost tables) and a
concurrent reader of the same memory file (a FaaSnap loader: a fault
on a page it has in flight waits on its read, and a fault read that
would overlap one of its reads goes to the event path mid-run). The
reader's accounting must agree too.

A sanitized record phase runs the mincore recorder's replay over the
VM's fault log and the page cache's time-stamped watch; on small
generated profiles, both paths must record the same working set and
loading set and end the phase at the same instant.
"""

from functools import partial
from unittest.mock import patch

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.loader import (
    LoaderStats,
    coalesce_ordered_pages,
    ordered_pages_loader,
)
from repro.core.daemon import FaaSnapPlatform
from repro.core.policies import Policy
from repro.core.reap import make_reap_fault_handler
from repro.core.recorder import mincore_recorder
from repro.core.restore import PlatformConfig
from repro.host import HostParams, PageCache
from repro.host.fault import (
    FAULTING_KINDS,
    KIND_CODE,
    FaultHandler,
    FaultKind,
    FaultRecord,
    FaultStats,
)
from repro.host.uffd import UserfaultfdManager
from repro.host.vma import AddressSpace
from repro.metrics.telemetry import HostTelemetry, MetricsRegistry
from repro.sim import Environment, Resource
from repro.storage import BlockDevice, DeviceSpec, FileStore
from repro.vm import create_snapshot
from repro.vm.vcpu import GuestAccess, VCpu
from repro.workloads.base import InputSpec, WorkloadProfile

#: File-backed pages [0, FILE_PAGES) then anonymous pages up to TOTAL.
FILE_PAGES = 48
TOTAL_PAGES = 96


def _device(env):
    return BlockDevice(
        env, DeviceSpec("d", 100.0, 10.0, 1589.0, 285_000, queue_depth=16)
    )


def _build_file_backed(file_pages, sparse, host):
    env = Environment()
    store = FileStore(env, _device(env))
    cache = PageCache(env)
    file = store.create("mem", FILE_PAGES, pages=file_pages, sparse=sparse)
    space = AddressSpace(TOTAL_PAGES)
    space.mmap_file(0, FILE_PAGES, file, 0)
    space.mmap_anonymous(FILE_PAGES, TOTAL_PAGES - FILE_PAGES)
    handler = FaultHandler(env, host, cache, space)
    return env, handler, file


def _build_uffd(file_pages, host):
    env = Environment()
    store = FileStore(env, _device(env))
    cache = PageCache(env)
    snapshot = create_snapshot(store, "fn", FILE_PAGES, file_pages)
    space = AddressSpace(TOTAL_PAGES)
    uffd = UserfaultfdManager(env, host)
    uffd.register(
        0, FILE_PAGES, make_reap_fault_handler(env, host, cache, snapshot)
    )
    handler = FaultHandler(env, host, cache, space, uffd=uffd)
    return env, handler, snapshot.memory_file


def _run(env, handler, file, trace, batch, boundaries):
    """Run ``trace`` on one vCPU under the drawn run ``boundaries``;
    returns the result and what the second reader of ``file`` saw."""
    cpu, _, reader = boundaries
    vcpu = VCpu(
        env,
        handler,
        cpu=Resource(env, capacity=1) if cpu else None,
        batch_faults=batch,
    )
    readings = []
    if reader is not None:
        delay_us, pages = reader
        stats = LoaderStats()
        readings.append(stats)

        def second_reader():
            if delay_us:
                yield env.timeout(delay_us)
            yield from ordered_pages_loader(
                env,
                handler.cache,
                file,
                coalesce_ordered_pages(pages, chunk_pages=16),
                stats,
            )

        env.process(second_reader())
    result = env.run(
        until=env.process(vcpu.run_trace(trace, tail_think_us=1.0))
    )
    return result, readings


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
        result.first_row,
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

#: A second reader of the memory file: ``(start delay, file pages)``,
#: a contiguous range it reads in 16-page chunks, or none. Without a
#: delay it announces its first read before the vCPU starts.
second_readers = st.one_of(
    st.none(),
    st.tuples(
        st.sampled_from([0.0, 4.0, 60.0]),
        st.integers(0, FILE_PAGES - 1).flatmap(
            lambda first: st.integers(first + 1, FILE_PAGES).map(
                lambda end: list(range(first, end))
            )
        ),
    ),
)

#: Dense file contents for the pinned examples: every page is read
#: from the device.
DENSE = {page: page % 9 + 1 for page in range(FILE_PAGES)}

#: ``(host CPU slot, fault_jitter_fraction, second reader)``: each
#: ends batched runs in its own way.
run_boundaries = st.tuples(
    st.booleans(),
    st.sampled_from([0.0, 0.3]),
    second_readers,
)


@settings(max_examples=60, deadline=None)
@given(file_contents, st.booleans(), accesses, run_boundaries)
# Pinned: a whole-file reader. The faults on pages 8 and 44 wait on its
# reads; the one on page 36 finds the device channel busy.
@example(
    DENSE,
    False,
    [(page, False, 0.5) for page in (8, 36, 4, 44, 20)],
    (False, 0.0, (0.0, list(range(FILE_PAGES)))),
)
def test_batched_trace_matches_event_path(file_pages, sparse, raw, boundaries):
    trace = _trace(raw, TOTAL_PAGES)
    host = HostParams(fault_jitter_fraction=boundaries[1])
    seen = []
    for batch in (False, True):
        env, handler, file = _build_file_backed(file_pages, sparse, host)
        result, readings = _run(env, handler, file, trace, batch, boundaries)
        seen.append((_observe(env, handler, file.device, result), readings))
    assert seen[0] == seen[1]


@settings(max_examples=40, deadline=None)
@given(file_contents, accesses, run_boundaries)
# Pinned: the handler of the fault on page 9 waits on the reader's
# read; the one on page 44 finds the device channel busy.
@example(
    DENSE,
    [(9, False, 0.5), (44, False, 0.5)],
    (False, 0.0, (0.0, list(range(2, FILE_PAGES)))),
)
def test_batched_uffd_faults_match_event_path(file_pages, raw, boundaries):
    # Every page is userfaultfd-registered (REAP's out-of-working-set
    # situation), exercising the synchronous delegation twin.
    trace = _trace(raw, FILE_PAGES)
    host = HostParams(fault_jitter_fraction=boundaries[1])
    seen = []
    delegated = []
    for batch in (False, True):
        env, handler, file = _build_uffd(file_pages, host)
        result, readings = _run(env, handler, file, trace, batch, boundaries)
        seen.append((_observe(env, handler, file.device, result), readings))
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
    for kind, page, start, duration, requests, nbytes in rows:
        if kind in io_kinds:
            log.log_io(KIND_CODE[kind], page, start, duration, requests, nbytes)
        else:
            log.log(KIND_CODE[kind], page, start, duration)
    assert log.records == records
    _check_absorb(log)


# -- sanitized record phases --------------------------------------------

record_profiles = st.builds(
    lambda core, var, pool, data, anon, compute, spread: WorkloadProfile(
        name="gen",
        description="generated record-phase profile",
        core_pages=core,
        var_base_pages=var,
        var_pool_pages=var + pool,
        data_pages=data,
        data_read_pages=data // 2,
        anon_base_pages=anon,
        compute_base_us=compute,
        spread_factor=spread,
        total_pages=4096,
        boot_pages=256,
    ),
    st.integers(1, 200),
    st.integers(0, 80),
    st.integers(0, 150),
    st.integers(0, 150),
    st.integers(0, 150),
    st.sampled_from([0.0, 300.0, 5_000.0]),
    st.sampled_from([1.0, 3.0, 6.0]),
)


def _record(profile, ratio, group_pages, poll_us, jitter, batch):
    """One sanitized record phase; what the test phases read of it."""
    config = PlatformConfig(
        host=HostParams(fault_jitter_fraction=jitter),
        group_pages=group_pages,
        batch_faults=batch,
    )
    platform = FaaSnapPlatform(config=config)
    handle = platform.register_function(profile)
    recorder = partial(mincore_recorder, poll_interval_us=poll_us)
    with patch("repro.core.restore.mincore_recorder", recorder):
        artifacts = platform.ensure_record(
            handle, InputSpec(content_id=1, size_ratio=ratio), Policy.FAASNAP
        )
    loading = artifacts.loading_set
    return (
        platform.env.now.hex(),
        sorted(artifacts.ws_groups.group_of.items()),
        [(r.start, r.npages, r.group, r.file_offset) for r in loading.regions],
        loading.essential_pages,
        loading.total_pages,
    )


@settings(max_examples=30, deadline=None)
@given(
    record_profiles,
    st.sampled_from([0.5, 1.0, 2.0]),
    st.sampled_from([1, 16, 64, 1024]),
    # Down to well under one major fault (~100 us on this device).
    st.sampled_from([0.5, 7.0, 200.0, 5_000.0]),
    st.sampled_from([0.0, 0.3]),
)
def test_sanitized_record_matches_event_path(
    profile, ratio, group_pages, poll_us, jitter
):
    batched, reference = (
        _record(profile, ratio, group_pages, poll_us, jitter, batch)
        for batch in (True, False)
    )
    assert batched == reference
