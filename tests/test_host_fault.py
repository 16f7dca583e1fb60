"""Unit tests for the page-fault handler and readahead."""

import random
from unittest.mock import patch

import pytest

from repro.host import (
    AddressSpace,
    FaultHandler,
    FaultKind,
    HostParams,
    PageCache,
    ReadaheadPolicy,
    UserfaultfdManager,
)
from repro.host.fault import _stretch_clock
from repro.sim import Environment, SimulationError
from repro.storage import BlockDevice, DeviceSpec, FileStore
from repro.storage.filestore import PAGE_SIZE
from repro.vm.vcpu import GuestAccess, VCpu


PARAMS = HostParams()


class Rig:
    """A small host rig: device, file store, cache, space, handler."""

    def __init__(self, num_pages=256, params=PARAMS, uffd=False):
        self.env = Environment()
        self.device = BlockDevice(
            self.env,
            DeviceSpec("d", 100.0, 10.0, 1000.0, 1e6, queue_depth=8),
        )
        self.store = FileStore(self.env, self.device)
        self.cache = PageCache(self.env)
        self.space = AddressSpace(num_pages)
        self.params = params
        self.uffd = (
            UserfaultfdManager(self.env, params) if uffd else None
        )
        self.handler = FaultHandler(
            self.env, params, self.cache, self.space, uffd=self.uffd
        )

    def run_accesses(self, accesses):
        """accesses: list of (page, write, value); returns records."""
        records = []

        def proc():
            for page, write, value in accesses:
                record = yield from self.handler.access(page, write, value)
                records.append(record)

        self.env.process(proc())
        self.env.run()
        return records


def test_anon_fault_cost_and_install():
    rig = Rig()
    rig.space.mmap_anonymous(0, 256)
    (record,) = rig.run_accesses([(5, False, None)])
    assert record.kind is FaultKind.ANON
    assert record.duration_us == pytest.approx(PARAMS.anon_fault_us)
    assert rig.space.is_installed(5)
    assert 5 in rig.space.ept


def test_second_access_is_free():
    rig = Rig()
    rig.space.mmap_anonymous(0, 256)
    records = rig.run_accesses([(5, False, None), (5, False, None)])
    assert records[1].kind is FaultKind.NONE
    assert records[1].duration_us == 0.0
    assert rig.handler.stats.count() == 1


def test_minor_fault_when_page_cached():
    rig = Rig()
    f = rig.store.create("mem", 256, pages={7: 70})
    rig.space.mmap_file(0, 256, f, 0)
    rig.cache.insert_range("mem", 7, 1)
    (record,) = rig.run_accesses([(7, False, None)])
    assert record.kind is FaultKind.MINOR
    assert record.duration_us == pytest.approx(PARAMS.minor_fault_us)
    assert record.block_requests == 0
    assert rig.space.pte[7] == 70


def test_major_fault_reads_from_disk_with_readahead():
    rig = Rig()
    pages = {i: i + 1 for i in range(256)}
    f = rig.store.create("mem", 256, pages=pages)
    rig.space.mmap_file(0, 256, f, 0)
    (record,) = rig.run_accesses([(10, False, None)])
    assert record.kind is FaultKind.MAJOR
    assert record.block_requests == 1
    assert record.bytes_read == PARAMS.readahead_pages * PAGE_SIZE
    assert record.duration_us > PARAMS.minor_fault_us
    # Readahead cached the neighbours.
    assert rig.cache.contains("mem", 10)
    assert rig.cache.contains("mem", 10 + PARAMS.readahead_pages - 1)
    assert not rig.cache.contains("mem", 10 + PARAMS.readahead_pages)


def test_access_after_readahead_is_minor():
    rig = Rig()
    f = rig.store.create("mem", 256, pages={i: i + 1 for i in range(256)})
    rig.space.mmap_file(0, 256, f, 0)
    records = rig.run_accesses([(10, False, None), (11, False, None)])
    assert records[0].kind is FaultKind.MAJOR
    assert records[1].kind is FaultKind.MINOR


def test_sparse_hole_fault_is_minor_without_io():
    rig = Rig()
    f = rig.store.create("mem", 256, pages={}, sparse=True)
    rig.space.mmap_file(0, 256, f, 0)
    (record,) = rig.run_accesses([(3, False, None)])
    assert record.kind is FaultKind.MINOR
    assert rig.device.stats.requests == 0
    assert rig.space.pte[3] == 0


def test_fault_waits_on_pending_read_without_own_io():
    rig = Rig()
    f = rig.store.create("mem", 256, pages={i: 1 for i in range(256)})
    rig.space.mmap_file(0, 256, f, 0)
    records = []

    def loader():
        rig.cache.begin_pending("mem", 20)
        yield from f.read(20, 1)
        rig.cache.insert_range("mem", 20, 1)

    def guest():
        yield rig.env.timeout(1)
        record = yield from rig.handler.access(20)
        records.append(record)

    rig.env.process(loader())
    rig.env.process(guest())
    rig.env.run()
    (record,) = records
    assert record.kind is FaultKind.MAJOR
    assert record.block_requests == 0  # the loader's read, not ours
    assert rig.device.stats.requests == 1


def test_present_fault_after_pte_preinstall():
    """UFFDIO_COPY-installed pages take only the fast KVM fixup."""
    rig = Rig()
    rig.space.mmap_anonymous(0, 256)
    rig.space.install_pte(9, 42)
    (record,) = rig.run_accesses([(9, False, None)])
    assert record.kind is FaultKind.PRESENT
    assert record.duration_us == pytest.approx(PARAMS.present_fault_us)


def test_write_to_anon_page():
    rig = Rig()
    rig.space.mmap_anonymous(0, 256)
    (record,) = rig.run_accesses([(4, True, 123)])
    assert record.kind is FaultKind.ANON
    assert rig.space.backing_value(4) == 123


def test_write_requires_value():
    rig = Rig()
    rig.space.mmap_anonymous(0, 256)
    with pytest.raises(SimulationError):
        rig.run_accesses([(4, True, None)])


def test_cow_break_on_first_write_to_file_page():
    rig = Rig()
    f = rig.store.create("mem", 256, pages={2: 22})
    rig.space.mmap_file(0, 256, f, 0)
    rig.cache.insert_range("mem", 2, 1)
    records = rig.run_accesses(
        [(2, False, None), (2, True, 55), (2, True, 66)]
    )
    assert records[0].kind is FaultKind.MINOR
    assert records[1].kind is FaultKind.COW
    assert records[2].kind is FaultKind.NONE  # already dirty
    assert rig.space.backing_value(2) == 66
    assert f.page_value(2) == 22  # MAP_PRIVATE: file unchanged


def test_unmapped_access_raises():
    rig = Rig()
    with pytest.raises(SimulationError, match="SIGSEGV"):
        rig.run_accesses([(0, False, None)])


def test_uffd_delegation():
    rig = Rig(uffd=True)
    rig.space.mmap_anonymous(0, 256)
    handled = []

    def handler(page, now):
        handled.append(page)
        return 1000 + page, now + 10, None

    rig.uffd.register(0, 128, handler)
    (record,) = rig.run_accesses([(50, False, None)])
    assert record.kind is FaultKind.UFFD
    assert handled == [50]
    assert rig.space.pte[50] == 1050
    expected = (
        PARAMS.uffd_wakeup_us
        + 10
        + PARAMS.uffd_copy_us
        + PARAMS.uffd_resume_stall_us
        + PARAMS.vcpu_block_overhead_us
    )
    assert record.duration_us == pytest.approx(expected)
    assert rig.uffd.delegated_faults == 1


def test_uffd_handler_may_answer_with_a_blocking_leg():
    rig = Rig(uffd=True)
    rig.space.mmap_anonymous(0, 256)

    def handler(page, now):
        def leg():
            yield rig.env.timeout(10)
            return 1000 + page, None

        return leg()

    rig.uffd.register(0, 128, handler)
    (record,) = rig.run_accesses([(50, True, 7)])
    assert record.kind is FaultKind.UFFD
    assert record.block_requests == 0
    # The guest's store lands on top of the handler's copy.
    assert rig.space.pte[50] == 7
    expected = (
        PARAMS.uffd_wakeup_us
        + 10
        + PARAMS.uffd_copy_us
        + PARAMS.uffd_resume_stall_us
        + PARAMS.vcpu_block_overhead_us
    )
    assert record.duration_us == pytest.approx(expected)
    assert rig.uffd.delegated_faults == 1


def test_uffd_outside_registration_falls_through():
    rig = Rig(uffd=True)
    rig.space.mmap_anonymous(0, 256)

    def handler(page, now):
        return 0, now + 1, None

    rig.uffd.register(0, 10, handler)
    (record,) = rig.run_accesses([(100, False, None)])
    assert record.kind is FaultKind.ANON


def test_uffd_overlapping_registration_rejected():
    rig = Rig(uffd=True)

    def handler(page, now):
        return 0, now + 1, None

    rig.uffd.register(0, 10, handler)
    with pytest.raises(SimulationError):
        rig.uffd.register(5, 10, handler)


def test_fault_stats_aggregation():
    rig = Rig()
    rig.space.mmap_anonymous(0, 256)
    rig.run_accesses([(i, False, None) for i in range(10)])
    stats = rig.handler.stats
    assert stats.count() == 10
    assert stats.count(FaultKind.ANON) == 10
    assert stats.total_time_us() == pytest.approx(10 * PARAMS.anon_fault_us)
    assert stats.total_block_requests() == 0


def test_fault_jitter_disabled_by_default():
    rig = Rig()
    rig.space.mmap_anonymous(0, 256)
    records = rig.run_accesses([(i, False, None) for i in range(20)])
    assert all(
        r.duration_us == pytest.approx(PARAMS.anon_fault_us) for r in records
    )


def test_fault_jitter_spreads_costs_deterministically():
    params = HostParams(fault_jitter_fraction=0.5)

    def run_once():
        rig = Rig(params=params)
        rig.space.mmap_anonymous(0, 256)
        records = rig.run_accesses([(i, False, None) for i in range(64)])
        return [r.duration_us for r in records]

    first = run_once()
    second = run_once()
    assert first == second  # deterministic
    assert len(set(first)) > 10  # actually spread
    for duration in first:
        assert (
            PARAMS.anon_fault_us * 0.5
            <= duration
            <= PARAMS.anon_fault_us * 1.5
        )


def test_readahead_window_trims_at_resident_page():
    params = HostParams(readahead_pages=8)
    rig = Rig(params=params)
    f = rig.store.create("mem", 64, pages={i: 1 for i in range(64)})
    rig.cache.insert_range("mem", 4, 1)
    policy = ReadaheadPolicy(params)
    # The window [0, 4), cut from a window of 8.
    assert policy.span(f, rig.cache, 0) == (4, 8)


def test_readahead_window_clips_at_eof():
    params = HostParams(readahead_pages=8)
    rig = Rig(params=params)
    f = rig.store.create("mem", 10, pages={i: 1 for i in range(10)})
    policy = ReadaheadPolicy(params)
    assert policy.span(f, rig.cache, 7) == (10, 8)  # [7, 10)


def test_readahead_window_includes_faulting_page_even_if_pending():
    params = HostParams(readahead_pages=4)
    rig = Rig(params=params)
    f = rig.store.create("mem", 16, pages={i: 1 for i in range(16)})
    rig.cache.begin_pending("mem", 1)
    policy = ReadaheadPolicy(params)
    assert policy.span(f, rig.cache, 0) == (1, 4)  # [0, 1)


def test_batched_vcpu_hands_contended_faults_to_the_event_path():
    # A loader reads pages 8-15, then 50-57, of the same memory file
    # while the guest faults: the fault on page 9 waits on the
    # loader's first read, and the read of the fault on page 0 would
    # end after the loader's second completes. Both need the event
    # path; the batched vCPU must reach the same timeline.
    from repro.core.loader import (
        LoaderStats,
        coalesce_ordered_pages,
        ordered_pages_loader,
    )
    from repro.vm.vcpu import GuestAccess, VCpu

    results = []
    params = HostParams(readahead_pages=2, readahead_max_pages=2)
    for batch in (False, True):
        rig = Rig(params=params)
        f = rig.store.create("mem", 64, pages={i: i + 1 for i in range(64)})
        rig.space.mmap_file(0, 64, f, 0)
        trace = [GuestAccess(page, think_us=3.0) for page in (9, 0, 1, 30, 2)]
        loaded = [*range(8, 16), *range(50, 58)]
        rig.env.process(
            ordered_pages_loader(
                rig.env,
                rig.cache,
                f,
                coalesce_ordered_pages(loaded),
                LoaderStats(),
            )
        )
        vcpu = VCpu(rig.env, rig.handler, batch_faults=batch)
        process = rig.env.process(vcpu.run_trace(trace))
        result = rig.env.run(until=process)
        results.append(
            (
                [
                    (r.kind, r.start_us, r.duration_us, r.block_requests)
                    for r in rig.handler.stats.records[result.first_row :]
                ],
                sorted(rig.cache.resident_set()),
                rig.env.now,
            )
        )
    assert results[0] == results[1]
    rows = results[0][0]
    kinds = [kind for kind, _, _, _ in rows]
    assert FaultKind.MINOR in kinds
    # The wait on the loader's read is a MAJOR fault without I/O.
    assert (FaultKind.MAJOR, 0) in [(kind, io) for kind, _, _, io in rows]


def _sequential_clock(vnow, costs, thinks, copies, copy_us):
    """The per-access loop's additions: each fault ends at its start
    plus its cost (then plus its copy), the next starts a think later."""
    starts, ends = [], []
    for i, cost in enumerate(costs):
        starts.append(vnow)
        end = vnow + cost
        if i in copies:
            end = end + copy_us
        ends.append(end)
        if i < len(thinks):
            vnow = end + thinks[i]
    return starts, ends


@pytest.mark.parametrize("with_copies", [False, True])
def test_stretch_clock_matches_sequential_additions_bit_for_bit(with_copies):
    rng = random.Random(5)
    size = 300
    # Costs whose sums round: jittered fault costs and awkward thinks,
    # from a clock far from 0 so every addition rounds.
    costs = [rng.choice([2.5, 3.7, 3.1 + rng.random()]) for _ in range(size)]
    thinks = [
        rng.choice([0.0, 0.1, 0.5, 3.25, rng.random() * 7])
        for _ in range(size - 1)
    ]
    # Copies on a scattered subset: the other positions of the
    # interleaved clock are 0.0 pads.
    copies = sorted(rng.sample(range(size), 60)) if with_copies else []
    vnow = 987_654.321
    copy_us = 1.9 + 1e-9
    got = _stretch_clock(vnow, costs, thinks, copies, copy_us)
    want = _sequential_clock(vnow, costs, thinks, set(copies), copy_us)
    assert [x.hex() for x in got[0]] == [x.hex() for x in want[0]]
    assert [x.hex() for x in got[1]] == [x.hex() for x in want[1]]


def test_stretch_cut_at_a_cow_break_keeps_the_clock():
    # A sparse file the cache holds whole, faulted in page order with MINOR
    # stores (copy-on-write legs), and two stores to pages already
    # mapped by a read (COW breaks, served one by one) that cut the
    # stretches: every row and the end instant match the event path bit
    # for bit.
    pages = list(range(200))
    pages.insert(90, 40)
    pages.insert(150, 120)
    trace = [
        GuestAccess(
            page,
            write=i % 3 == 0 or i in (90, 150),
            value=i + 1 if i % 3 == 0 or i in (90, 150) else None,
            think_us=(0.0, 0.7, 1.3)[i % 3],
        )
        for i, page in enumerate(pages)
    ]
    assert not trace[40].write and not trace[121].write
    seen = []
    served = []
    stretch = FaultHandler._stretch

    def counting(self, *args):
        done = stretch(self, *args)
        served.append(done[0])
        return done

    for batch in (False, True):
        rig = Rig(params=HostParams())
        contents = {i: i + 1 for i in range(0, 256, 2)}
        f = rig.store.create("mem", 256, pages=contents, sparse=True)
        rig.space.mmap_file(0, 256, f, 0)
        rig.cache.insert_range("mem", 0, 256)
        vcpu = VCpu(rig.env, rig.handler, batch_faults=batch)
        with patch.object(FaultHandler, "_stretch", counting):
            result = rig.env.run(until=rig.env.process(vcpu.run_trace(trace)))
        seen.append(
            (
                [
                    (r.kind, r.page, r.start_us.hex(), r.duration_us.hex())
                    for r in rig.handler.stats.records
                ],
                result.finished_us.hex(),
                sorted(rig.space.pte.items()),
                sorted(rig.space.anon_contents.items()),
            )
        )
    assert seen[0] == seen[1]
    kinds = [kind for kind, _, _, _ in seen[1][0]]
    assert kinds.count(FaultKind.COW) == 2
    assert kinds.count(FaultKind.MINOR) == 200
    # Served in bulk, in more than one stretch around the cuts.
    assert sum(served) > 150 and len([n for n in served if n]) > 2
