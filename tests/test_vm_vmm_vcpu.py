"""Unit tests for the microVM and vCPU."""

import pytest

from repro.host import FaultKind, HostParams, PageCache
from repro.sim import Environment, Resource, SimulationError
from repro.storage import BlockDevice, DeviceSpec, FileStore
from repro.vm import (
    GuestAccess,
    MappingPlan,
    MicroVM,
    VmmParams,
    create_snapshot,
    full_file_plan,
)

HOST = HostParams()
VMM = VmmParams()


class Rig:
    def __init__(self, num_pages=4096, cpu_slots=None):
        self.env = Environment()
        self.device = BlockDevice(
            self.env, DeviceSpec("d", 100.0, 10.0, 1589.0, 285_000, queue_depth=16)
        )
        self.store = FileStore(self.env, self.device)
        self.cache = PageCache(self.env)
        self.cpu = (
            Resource(self.env, cpu_slots) if cpu_slots is not None else None
        )
        self.num_pages = num_pages

    def vm(self, label="vm", use_uffd=False):
        return MicroVM(
            self.env,
            HOST,
            VMM,
            self.cache,
            self.num_pages,
            label=label,
            cpu=self.cpu,
            use_uffd=use_uffd,
        )

    def run(self, gen):
        return self.env.run(until=self.env.process(gen))


def test_restore_charges_setup_costs():
    rig = Rig()
    snap = create_snapshot(rig.store, "fn", rig.num_pages, {1: 1})
    vm = rig.vm()
    setup = rig.run(vm.restore(snap))
    assert setup > VMM.vmm_start_us + VMM.vmstate_restore_us
    assert vm.space.coverage_gaps() == []


def test_restore_twice_rejected():
    rig = Rig()
    snap = create_snapshot(rig.store, "fn", rig.num_pages, {1: 1})
    vm = rig.vm()
    rig.run(vm.restore(snap))
    with pytest.raises(SimulationError):
        rig.run(vm.restore(snap))


def test_full_file_plan_is_one_mapping():
    rig = Rig()
    snap = create_snapshot(rig.store, "fn", rig.num_pages, {1: 1})
    plan = full_file_plan(snap)
    assert len(plan) == 1
    vm = rig.vm()
    rig.run(vm.restore(snap, plan))
    assert len(vm.space.vmas()) == 1


def test_mapping_plan_cost_scales_with_regions():
    rig = Rig()
    snap = create_snapshot(rig.store, "fn", rig.num_pages, {1: 1})
    many = MappingPlan()
    many.add_anonymous(0, rig.num_pages)
    for start in range(0, 1000, 10):
        many.add_file(start, 5, snap.memory_file, start)
    vm_many = rig.vm("many")
    t_many = rig.run(vm_many.restore(snap, many))

    rig2 = Rig()
    snap2 = create_snapshot(rig2.store, "fn", rig2.num_pages, {1: 1})
    few = MappingPlan()
    few.add_anonymous(0, rig2.num_pages)
    vm_few = rig2.vm("few")
    t_few = rig2.run(vm_few.restore(snap2, few))
    assert t_many > t_few
    assert t_many - t_few == pytest.approx(100 * HOST.mmap_region_us)


def test_invocation_faults_through_restored_mapping():
    rig = Rig()
    contents = {i: i + 1 for i in range(64)}
    snap = create_snapshot(rig.store, "fn", rig.num_pages, contents)
    vm = rig.vm()
    rig.run(vm.restore(snap))

    trace = [GuestAccess(page=i) for i in range(0, 64, 32)]
    result = rig.run(vm.vcpu.run_trace(trace))
    kinds = [r.kind for r in vm.handler.stats.records[result.first_row :]]
    assert kinds == [FaultKind.MAJOR, FaultKind.MAJOR]
    assert vm.handler.observed_value(0) == 1


def test_vcpu_think_time_accumulates():
    rig = Rig()
    snap = create_snapshot(rig.store, "fn", rig.num_pages, {})
    vm = rig.vm()
    vm.make_warm(snap)
    trace = [GuestAccess(page=i, think_us=100.0) for i in range(10)]
    result = rig.run(vm.vcpu.run_trace(trace, tail_think_us=500.0))
    assert result.elapsed_us >= 1500.0


def test_warm_vm_rereads_are_free_and_new_pages_fault_anon():
    rig = Rig()
    contents = {i: i + 1 for i in range(100)}
    snap = create_snapshot(rig.store, "fn", rig.num_pages, contents)
    vm = rig.vm()
    vm.make_warm(snap)
    trace = [GuestAccess(page=5), GuestAccess(page=2000)]
    result = rig.run(vm.vcpu.run_trace(trace))
    # The image read is no fault and logs no row.
    (record,) = vm.handler.stats.records[result.first_row :]
    assert (record.kind, record.page) == (FaultKind.ANON, 2000)
    assert vm.handler.observed_value(5) == 6
    assert rig.device.stats.requests == 0


def test_warm_vm_preserves_contents():
    rig = Rig()
    snap = create_snapshot(rig.store, "fn", rig.num_pages, {7: 77})
    vm = rig.vm()
    vm.make_warm(snap)
    assert vm.space.backing_value(7) == 77
    assert vm.space.backing_value(8) == 0


def test_cpu_contention_slows_think_time():
    def total_time(slots, nvms):
        rig = Rig(cpu_slots=slots)
        snap = create_snapshot(rig.store, "fn", rig.num_pages, {})
        done = []

        def run_vm(i):
            vm = rig.vm(f"vm{i}")
            vm.make_warm(snap)
            trace = [GuestAccess(page=p, think_us=1000.0) for p in range(5)]
            yield from vm.vcpu.run_trace(trace)
            done.append(rig.env.now)

        for i in range(nvms):
            rig.env.process(run_vm(i))
        rig.env.run()
        return max(done)

    uncontended = total_time(slots=8, nvms=4)
    contended = total_time(slots=2, nvms=4)
    assert contended > uncontended


def test_cold_boot_charges_full_startup_and_leaves_warm_state():
    rig = Rig()
    vm = rig.vm()
    contents = {5: 55, 9: 99, 11: 0}
    elapsed = rig.run(vm.cold_boot(contents, runtime_init_us=2_000_000.0))
    assert elapsed == pytest.approx(
        VMM.vmm_start_us + VMM.cold_boot_us + 2_000_000.0
    )
    assert vm.space.backing_value(5) == 55
    assert vm.space.backing_value(11) == 0
    # Booted state behaves like a warm VM: reads are free.
    result = rig.run(vm.vcpu.run_trace([GuestAccess(page=5)]))
    assert len(vm.handler.stats) == result.first_row
    assert rig.device.stats.requests == 0


def test_cold_boot_twice_rejected():
    rig = Rig()
    vm = rig.vm()
    rig.run(vm.cold_boot({}, runtime_init_us=0.0))
    with pytest.raises(SimulationError):
        rig.run(vm.cold_boot({}, runtime_init_us=0.0))


def test_memory_integrity_through_restore_and_execution():
    """Every page the guest reads must observe the snapshot's value."""
    rig = Rig()
    contents = {i: 1000 + i for i in range(0, 256, 3)}
    snap = create_snapshot(rig.store, "fn", rig.num_pages, contents)
    vm = rig.vm()
    rig.run(vm.restore(snap))
    trace = [GuestAccess(page=i) for i in range(256)]
    rig.run(vm.vcpu.run_trace(trace))
    for page in range(256):
        assert vm.handler.observed_value(page) == contents.get(page, 0)
