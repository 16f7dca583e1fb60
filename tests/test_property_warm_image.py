"""Property tests for the shared warm image.

``MicroVM.make_warm`` and ``MicroVM.cold_boot`` leave the guest's
non-zero memory in a read-only image shared with the snapshot (or the
boot contents) instead of copying it into the address space's PTE,
EPT and anonymous-contents maps. The image must be indistinguishable
from installing every page eagerly, which is what both did before: the
reference below does exactly that, and random traces mixing reads and
writes of image pages with first touches of fresh pages (plus an
optional MAP_FIXED remap half-way) must observe the same fault-log rows,
clock, resident set and memory contents on both.

The batched vCPU serves a run of image pages in bulk, between the
pages outside the image, so image-backed VMs are also held to the
event path (``batch_faults=False``) on traces of a few hundred
accesses, with and without a host CPU slot.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, ClusterSimulator
from repro.fleet.workload import Arrival, ArrivalTrace, FleetFunction
from repro.host import HostParams, PageCache
from repro.sim import Environment, Resource, SimulationError
from repro.storage import BlockDevice, DeviceSpec, FileStore
from repro.vm import (
    GuestAccess,
    MicroVM,
    Snapshot,
    VmmParams,
    capture_memory_contents,
)

HOST = HostParams()
VMM = VmmParams()
NUM_PAGES = 64
RUNTIME_INIT_US = 1_000.0
SECOND = 1_000_000.0


def _rig(batch, cpu=False):
    env = Environment()
    device = BlockDevice(
        env, DeviceSpec("d", 100.0, 10.0, 1589.0, 285_000, queue_depth=16)
    )
    store = FileStore(env, device)
    vm = MicroVM(
        env,
        HOST,
        VMM,
        PageCache(env),
        NUM_PAGES,
        cpu=Resource(env, capacity=1) if cpu else None,
        batch_faults=batch,
    )
    return env, store, vm


def _eager_install(space, pages):
    """The reference: every page copied into all three maps."""
    space.mmap_anonymous(0, space.num_pages)
    space.anon_contents.update(pages)
    space.pte.update(pages)
    space.ept.update(pages)


def _snapshot(store, contents):
    # Built directly so explicit zero tokens reach the store, which
    # drops them: a memory file's page map is zero-free.
    memory = store.create("fn.mem", NUM_PAGES, pages=contents, sparse=True)
    vmstate = store.create("fn.vmstate", 1)
    return Snapshot("fn", memory, vmstate)


def _set_up(env, store, vm, contents, how, eager):
    nonzero = {p: v for p, v in contents.items() if v != 0}
    if how == "warm":
        if eager:
            _eager_install(vm.space, nonzero)
            vm._setup_done = True
        else:
            vm.make_warm(_snapshot(store, contents))
        return
    if eager:

        def boot():
            yield env.timeout(VMM.vmm_start_us)
            yield env.timeout(VMM.cold_boot_us)
            yield env.timeout(RUNTIME_INIT_US)
            _eager_install(vm.space, nonzero)

        env.run(until=env.process(boot()))
    else:
        env.run(until=env.process(vm.cold_boot(contents, RUNTIME_INIT_US)))


def _remap(store, vm, remap):
    start, npages, file_backed = remap
    npages = min(npages, NUM_PAGES - start)
    if file_backed:
        file = store.create(
            "overlay", npages, pages={i: 500 + i for i in range(0, npages, 2)}
        )
        vm.space.mmap_file(start, npages, file, 0)
    else:
        vm.space.mmap_anonymous(start, npages)


def _observe(env, vm, result):
    space = vm.space
    return (
        result.started_us,
        result.finished_us,
        env.now,
        result.first_row,
        tuple(
            (
                r.kind,
                r.page,
                r.start_us,
                r.duration_us,
                r.block_requests,
                r.bytes_read,
            )
            for r in vm.handler.stats.records[result.first_row :]
        ),
        space.rss_pages(),
        tuple(space.backing_value(p) for p in range(NUM_PAGES)),
        tuple(space.is_installed(p) for p in range(NUM_PAGES)),
        sorted(capture_memory_contents(space).items()),
    )


def _trace(raw):
    return [
        GuestAccess(
            page=page, write=write, value=page + 7 if write else None,
            think_us=think,
        )
        for page, write, think in raw
    ]


accesses = st.lists(
    st.tuples(
        st.integers(0, NUM_PAGES - 1),
        st.booleans(),
        st.sampled_from([0.0, 0.5, 3.25]),
    ),
    max_size=40,
)

contents_st = st.dictionaries(
    st.integers(0, NUM_PAGES - 1), st.integers(0, 9), max_size=NUM_PAGES
)

remaps = st.none() | st.tuples(
    st.integers(0, NUM_PAGES - 1), st.integers(1, NUM_PAGES), st.booleans()
)


@settings(max_examples=80, deadline=None)
@given(
    contents_st,
    st.sampled_from(["warm", "boot"]),
    st.booleans(),
    accesses,
    remaps,
    accesses,
)
def test_image_matches_eager_install(contents, how, batch, raw, remap, raw2):
    seen = []
    for eager in (True, False):
        env, store, vm = _rig(batch)
        _set_up(env, store, vm, contents, how, eager)
        observed = []
        result = env.run(until=env.process(vm.vcpu.run_trace(_trace(raw))))
        observed.append(_observe(env, vm, result))
        if remap is not None:
            _remap(store, vm, remap)
            result = env.run(
                until=env.process(vm.vcpu.run_trace(_trace(raw2)))
            )
            observed.append(_observe(env, vm, result))
        seen.append(observed)
    assert seen[0] == seen[1]


#: Long traces: image pages, fresh first touches and re-touches of
#: pages already faulted in, so a run spans many stretches of image
#: pages, each ended by a page outside the image.
long_accesses = st.lists(
    st.tuples(
        st.integers(0, NUM_PAGES - 1),
        st.booleans(),
        st.sampled_from([0.0, 0.0, 0.5, 3.25]),
    ),
    min_size=150,
    max_size=400,
)


@settings(max_examples=60, deadline=None)
@given(
    contents_st,
    st.sampled_from(["warm", "boot"]),
    long_accesses,
    st.booleans(),
)
def test_image_runs_match_event_path(contents, how, raw, cpu):
    seen = []
    for batch in (False, True):
        env, store, vm = _rig(batch, cpu=cpu)
        _set_up(env, store, vm, contents, how, eager=False)
        result = env.run(
            until=env.process(
                vm.vcpu.run_trace(_trace(raw), tail_think_us=1.0)
            )
        )
        seen.append(_observe(env, vm, result))
    assert seen[0] == seen[1]


@pytest.mark.parametrize("batch", [True, False])
def test_valueless_store_in_an_image_run_raises_at_that_store(batch):
    env, store, vm = _rig(batch)
    vm.make_warm(_snapshot(store, {p: p + 100 for p in range(0, 40)}))
    trace = [
        GuestAccess(page=1, write=True, value=11, think_us=0.5),
        GuestAccess(page=50, write=True, value=12),
        GuestAccess(page=2),
        GuestAccess(page=3, write=True, value=13, think_us=0.5),
        GuestAccess(page=4, write=True),
        GuestAccess(page=5, write=True, value=15),
        GuestAccess(page=51, write=True, value=16),
    ]
    with pytest.raises(SimulationError, match="requires a value"):
        env.run(until=env.process(vm.vcpu.run_trace(trace)))
    # Every store before the valueless one landed, none after it.
    assert vm.space.anon_contents == {1: 11, 50: 12, 3: 13}
    assert vm.space.backing_value(5) == 105
    assert not vm.space.is_installed(51)


def test_warm_vms_share_the_snapshot_image_read_only():
    env, store, vm = _rig(batch=True)
    snapshot = _snapshot(store, {3: 30, 4: 40})
    vm.make_warm(snapshot)
    other = MicroVM(env, HOST, VMM, vm.cache, NUM_PAGES, label="vm2")
    other.make_warm(snapshot)
    trace = [GuestAccess(page=3, write=True, value=99), GuestAccess(page=9)]
    env.run(until=env.process(vm.vcpu.run_trace(trace)))
    assert vm.space.backing_value(3) == 99
    assert other.space.backing_value(3) == 30
    assert snapshot.memory_file.pages == {3: 30, 4: 40}
    assert vm.space.rss_pages() == 3
    # MAP_FIXED over part of the space keeps the rest of the image.
    vm.space.mmap_anonymous(4, 1)
    assert vm.space.backing_value(3) == 99
    assert vm.space.backing_value(4) == 0
    assert vm.space.rss_pages() == 2
    assert snapshot.memory_file.pages == {3: 30, 4: 40}


def test_cluster_vcpu_path_counters_are_pinned():
    # The service journal's telemetry digest covers these counters, so
    # handling EPT hits inline must still count each one as a
    # fast-path access.
    fleet = [
        FleetFunction(
            name=name, profile_name=name, mean_interarrival_us=SECOND
        )
        for name in ("hello-world", "json")
    ]
    trace = ArrivalTrace(
        arrivals=[
            Arrival(time_us=t * SECOND, function=name)
            for t, name in (
                (0.0, "hello-world"),
                (1.0, "json"),
                (10.0, "hello-world"),
                (12.0, "json"),
                (40.0, "json"),
            )
        ],
        duration_us=41 * SECOND,
    )
    config = ClusterConfig(num_hosts=2, keep_alive_ttl_us=18 * SECOND)
    simulator = ClusterSimulator(fleet, config)
    simulator.run(trace)
    registry = simulator.registry
    counts = {
        kind: sum(
            registry.get(f"host{i}.vcpu.{kind}_path_accesses").read()
            for i in range(2)
        )
        for kind in ("fast", "event")
    }
    assert counts == {"fast": FAST_PATH_PIN, "event": EVENT_PATH_PIN}


#: Counted by the record-per-access vCPU loop these counters were
#: defined against (two cold starts, two warm starts, one more cold).
#: Nothing observes a record VM from the event heap (the mincore
#: recorder replays its polls afterwards), so every access of this
#: run takes the fast path.
FAST_PATH_PIN = 41464
EVENT_PATH_PIN = 0
