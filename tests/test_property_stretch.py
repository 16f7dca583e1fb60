"""Property tests for the bulk stretch of the fault run loop.

Once the batched vCPU's run loop has served a streak of faults without
I/O, it serves the next chunk of the trace at once
(``FaultHandler._stretch``), classified against the state at the
chunk's start, with the clock from one ``accumulate``. That must be
indistinguishable from the event path (``batch_faults=False``) in all
three shapes of address space a cold restore has:

* **uffd** (REAP): no VMA, every page userfaultfd-registered, and a
  prefetched working set installed in the host PTEs, so its faults are
  PRESENT and the rest delegated (UFFD);
* **file** (Cached): one VMA over a memory file the page cache holds
  whole, or only partly (MINOR and MAJOR faults);
* **layered** (FaaSnap): anonymous memory over the whole space with
  regions of a memory file and of a compact loading-set file mapped on
  top (ANON, MINOR and MAJOR faults, hundreds of VMAs in practice).

Traces are long runs of distinct pages, so stretches outgrow the
engagement streak and the first chunk, with repeated pages (NONE
accesses, and stores to them that break copy-on-write) mixed in. Each
test draws sparse holes, a partly resident cache, a concurrent loader
of a mapped file, fault-cost jitter, a host CPU slot, and a valueless
store, which must raise at the same access on both paths.
"""

import random
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.loader import (
    LoaderStats,
    coalesce_ordered_pages,
    ordered_pages_loader,
)
from repro.core.reap import make_reap_fault_handler
from repro.host import HostParams, PageCache
from repro.host.fault import _STRETCH_ENGAGE, FaultHandler
from repro.host.uffd import UserfaultfdManager
from repro.host.vma import AddressSpace
from repro.sim import Environment, Resource, SimulationError
from repro.storage import BlockDevice, DeviceSpec, FileStore
from repro.vm import create_snapshot
from repro.vm.vcpu import GuestAccess, VCpu

from tests.test_property_batching import _check_absorb, _rows

PAGES = 256
#: The layered shape's loading-set file: regions of the space packed
#: back to back, as FaaSnap writes it.
REGION_PAGES = 8


def _device(env):
    return BlockDevice(
        env, DeviceSpec("d", 100.0, 10.0, 1589.0, 285_000, queue_depth=16)
    )


def _warm(cache, file, pages):
    for page in pages:
        cache.insert_range(file.name, page, 1)


def _build(shape, draw):
    """A fresh rig of ``shape``: ``(env, handler, file a second reader
    loads)``. ``draw`` is a seeded ``random.Random`` that decides
    contents, residency and the layered shape's regions."""
    host = HostParams(fault_jitter_fraction=draw.jitter)
    env = Environment()
    store = FileStore(env, _device(env))
    cache = PageCache(env)
    space = AddressSpace(PAGES)
    holes = draw.sparse
    contents = {
        page: draw.randrange(1, 9)
        for page in range(PAGES)
        if not holes or draw.random() < 0.7
    }
    if shape == "uffd":
        snapshot = create_snapshot(store, "fn", PAGES, contents, sparse=holes)
        uffd = UserfaultfdManager(env, host)
        uffd.register(
            0, PAGES, make_reap_fault_handler(env, host, cache, snapshot)
        )
        # The prefetched working set, installed as UFFDIO_COPY does.
        for page in range(PAGES):
            if draw.random() < draw.resident:
                space.install_pte(page, contents.get(page, 0))
        _warm(cache, snapshot.memory_file, draw.sample(range(PAGES), 16))
        handler = FaultHandler(env, host, cache, space, uffd=uffd)
        return env, handler, snapshot.memory_file
    memory = store.create("fn.mem", PAGES, pages=contents, sparse=holes)
    if shape == "file":
        space.mmap_file(0, PAGES, memory, 0)
        resident = [p for p in range(PAGES) if draw.random() < draw.resident]
        _warm(cache, memory, resident)
        return env, FaultHandler(env, host, cache, space), memory
    space.mmap_anonymous(0, PAGES)
    starts = sorted(draw.sample(range(0, PAGES, REGION_PAGES), 20))
    for start in starts[:6]:
        space.mmap_file(start, REGION_PAGES, memory, start)
    loading = store.create(
        "fn.loadingset",
        REGION_PAGES * 14,
        pages={
            offset * REGION_PAGES + i: contents.get(start + i, 0) or 5
            for offset, start in enumerate(starts[6:])
            for i in range(REGION_PAGES)
        },
    )
    for offset, start in enumerate(starts[6:]):
        space.mmap_file(start, REGION_PAGES, loading, offset * REGION_PAGES)
    if draw.resident >= 0.5:
        _warm(cache, loading, range(loading.num_pages))
    else:
        _warm(cache, loading, range(0, loading.num_pages, 3))
    resident = [p for p in range(PAGES) if draw.random() < draw.resident]
    _warm(cache, memory, resident)
    return env, FaultHandler(env, host, cache, space), loading


class Draw(random.Random):
    """The seeded choices of one example."""

    def __init__(self, seed, sparse, resident, jitter):
        super().__init__(seed)
        self.sparse = sparse
        self.resident = resident
        self.jitter = jitter


def _trace(draw, length, repeats, valueless):
    """``length`` distinct pages in random order, each of ``repeats``
    a re-touch of an earlier step's page; about a fifth are stores,
    and store ``valueless`` (if any) has no value."""
    pages = draw.sample(range(PAGES), length)
    for _ in range(repeats):
        at = draw.randrange(1, len(pages))
        pages.insert(at, pages[draw.randrange(at)])
    thinks = (0.0, 0.0, 0.5, 3.25)
    steps = []
    stores = 0
    for page in pages:
        write = draw.random() < 0.2
        value = None
        if write:
            if stores != valueless:
                value = page + 7
            stores += 1
        steps.append(GuestAccess(page, write, value, draw.choice(thinks)))
    return steps


def _run(shape, draw_args, trace, batch, cpu, reader):
    draw = Draw(*draw_args)
    env, handler, file = _build(shape, draw)
    vcpu = VCpu(
        env,
        handler,
        cpu=Resource(env, capacity=1) if cpu else None,
        batch_faults=batch,
    )
    stats = LoaderStats()
    if reader is not None:

        def second_reader():
            if reader:
                yield env.timeout(reader)
            yield from ordered_pages_loader(
                env,
                handler.cache,
                file,
                coalesce_ordered_pages(range(file.num_pages), chunk_pages=16),
                stats,
            )

        env.process(second_reader())
    space = handler.space
    try:
        result = env.run(
            until=env.process(vcpu.run_trace(trace, tail_think_us=1.0))
        )
    except SimulationError as error:
        # The vCPU raised at the valueless store. How far the clock and
        # the reader got by then differs between the paths (the batched
        # one had not flushed its virtual clock), so only the VM's state
        # is compared.
        host = str(error)
    else:
        device = file.device
        host = (
            result.started_us,
            result.finished_us,
            env.now,
            sorted(handler.cache.resident_set()),
            device.stats.requests,
            device.stats.bytes_read,
            device.stats.busy_time_us,
            (stats.pages_fetched, stats.requests, stats.bytes_read),
        )
    _check_absorb(handler.stats)
    return (
        host,
        _rows(handler.stats.records),
        sorted(space.pte.items()),
        sorted(space.anon_contents.items()),
        sorted(space.ept),
    )


examples = st.tuples(
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.sampled_from([0.3, 0.9, 1.0]),
    st.sampled_from([0.0, 0.0, 0.3]),
)


def _check(shape, draw_args, length, repeats, valueless, cpu, reader):
    trace = _trace(Draw(*draw_args), length, repeats, valueless)
    reference, batched = (
        _run(shape, draw_args, trace, batch, cpu, reader)
        for batch in (False, True)
    )
    assert batched == reference
    if valueless is not None and any(
        step.write and step.value is None for step in trace
    ):
        assert reference[0] == "write access requires a value"


shape_cases = dict(
    draw_args=examples,
    length=st.integers(2 * _STRETCH_ENGAGE, PAGES),
    repeats=st.integers(0, 6),
    valueless=st.none() | st.integers(0, 40),
    # A host CPU slot or jitter keeps every access off the bulk path;
    # drawn less often, so most examples engage it.
    cpu=st.sampled_from([False, False, True]),
    # A second reader of the mapped file: none, from the start, or
    # starting mid-trace.
    reader=st.sampled_from([None, 0.0, 40.0]),
)


@settings(max_examples=60, deadline=None)
@given(**shape_cases)
def test_uffd_stretches_match_event_path(
    draw_args, length, repeats, valueless, cpu, reader
):
    _check("uffd", draw_args, length, repeats, valueless, cpu, reader)


@settings(max_examples=60, deadline=None)
@given(**shape_cases)
def test_file_stretches_match_event_path(
    draw_args, length, repeats, valueless, cpu, reader
):
    _check("file", draw_args, length, repeats, valueless, cpu, reader)


@settings(max_examples=60, deadline=None)
@given(**shape_cases)
def test_layered_stretches_match_event_path(
    draw_args, length, repeats, valueless, cpu, reader
):
    _check("layered", draw_args, length, repeats, valueless, cpu, reader)


@pytest.mark.parametrize("resident", [1.0, 0.9])
@pytest.mark.parametrize("shape", ["uffd", "file", "layered"])
def test_each_shape_serves_long_stretches_in_bulk(shape, resident):
    # No jitter, CPU slot, reader or repeat, and a cache (or prefetched
    # working set) that holds all or most pages: the properties above
    # must not pass by never engaging the stretch.
    draw_args = (11, False, resident, 0.0)
    trace = _trace(Draw(*draw_args), PAGES, 0, None)
    served = []
    stretch = FaultHandler._stretch

    def counting(self, *args):
        done = stretch(self, *args)
        served.append(done[0])
        return done

    with patch.object(FaultHandler, "_stretch", counting):
        batched = _run(shape, draw_args, trace, True, False, None)
    assert batched == _run(shape, draw_args, trace, False, False, None)
    if resident == 1.0:
        assert sum(served) >= PAGES // 2
        assert max(served) >= 64
    elif shape == "file":
        # A file the cache does not hold whole keeps its MINOR faults
        # on the per-access path.
        assert sum(served) == 0
    else:
        assert sum(served) >= _STRETCH_ENGAGE


@pytest.mark.parametrize("shape", ["uffd", "file", "layered"])
def test_valueless_store_in_a_stretch_raises_at_that_store(shape):
    # The 30th store comes well after the stretch engages: the batched
    # path must stop its bulk stretch before it, and raise there with
    # every earlier access served, as the event path does.
    draw_args = (11, False, 1.0, 0.0)
    trace = _trace(Draw(*draw_args), PAGES, 0, 30)
    stores = [i for i, step in enumerate(trace) if step.write]
    assert trace[stores[30]].value is None and stores[30] > 64
    batched, reference = (
        _run(shape, draw_args, trace, batch, False, None)
        for batch in (True, False)
    )
    assert batched == reference
    assert batched[0] == "write access requires a value"
    # One row per access before it (all first touches); the store
    # raises before its own fault is logged.
    assert len(batched[1]) == stores[30]
