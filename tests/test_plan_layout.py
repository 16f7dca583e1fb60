"""A mapping plan's resolved VMA layout, installed in one step by
``MicroVM.apply_plan``, against its mmaps applied one at a time."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.host import ANONYMOUS, AddressSpace, HostParams, PageCache
from repro.sim import Environment, SimulationError
from repro.storage import BlockDevice, DeviceSpec, FileStore
from repro.vm import MappingPlan, MicroVM, VmmParams, create_snapshot
from repro.vm.vmm import anonymous_plan, full_file_plan

HOST = HostParams()
SPACE_PAGES = 192


class Rig:
    def __init__(self, num_pages=SPACE_PAGES):
        self.env = Environment()
        self.device = BlockDevice(
            self.env, DeviceSpec("d", 100.0, 10.0, 1589.0, 285_000, queue_depth=16)
        )
        self.store = FileStore(self.env, self.device)
        self.cache = PageCache(self.env)
        self.num_pages = num_pages

    def vm(self, label="vm"):
        return MicroVM(
            self.env, HOST, VmmParams(), self.cache, self.num_pages, label=label
        )

    def run(self, gen):
        return self.env.run(until=self.env.process(gen))


def vma_fields(vma):
    backing = vma.backing
    if backing is ANONYMOUS:
        return (vma.start, vma.npages, None, 0)
    return (vma.start, vma.npages, backing.file.name, backing.file_start_page)


def sequential(plan, num_pages):
    """The oracle: the plan's mmaps issued one at a time."""
    space = AddressSpace(num_pages)
    for directive in plan.directives:
        if directive.file is None:
            space.mmap_anonymous(directive.start, directive.npages)
        else:
            space.mmap_file(
                directive.start,
                directive.npages,
                directive.file,
                directive.file_start_page,
            )
    return space


@st.composite
def plans(draw):
    """File sizes and contents, then an anonymous or file base and
    1-60 overlapping anonymous or file directives over those files."""
    files = []
    for _ in range(draw(st.integers(min_value=2, max_value=3))):
        size = SPACE_PAGES + draw(st.integers(min_value=0, max_value=64))
        pages = draw(
            st.dictionaries(
                st.integers(min_value=0, max_value=size - 1),
                st.integers(min_value=1, max_value=1 << 20),
                max_size=48,
            )
        )
        files.append((size, pages))
    base = draw(st.integers(min_value=-1, max_value=len(files) - 1))
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=60))):
        start = draw(st.integers(min_value=0, max_value=SPACE_PAGES - 1))
        npages = draw(st.integers(min_value=1, max_value=SPACE_PAGES - start))
        slot = draw(st.integers(min_value=-1, max_value=len(files) - 1))
        offset = (
            draw(st.integers(min_value=0, max_value=files[slot][0] - npages))
            if slot >= 0
            else 0
        )
        ops.append((start, npages, slot, offset))
    return files, base, ops


@given(plans())
@settings(max_examples=80, deadline=None)
def test_installed_layout_equals_sequential_mmaps(drawn):
    files, base, ops = drawn
    rig = Rig()
    stored = [
        rig.store.create(f"f{i}", size, pages=pages)
        for i, (size, pages) in enumerate(files)
    ]
    plan = MappingPlan()
    if base < 0:
        plan.add_anonymous(0, SPACE_PAGES)
    else:
        plan.add_file(0, SPACE_PAGES, stored[base], 0)
    for start, npages, slot, offset in ops:
        if slot < 0:
            plan.add_anonymous(start, npages)
        else:
            plan.add_file(start, npages, stored[slot], offset)
    oracle = sequential(plan, SPACE_PAGES)

    # Twice: the second VM installs the memoised layout.
    for label in ("first", "second"):
        vm = rig.vm(label)
        started = rig.env.now
        rig.run(vm.apply_plan(plan))
        space = vm.space
        assert rig.env.now - started == pytest.approx(
            len(plan) * HOST.mmap_region_us
        )
        assert list(map(vma_fields, space.vmas())) == list(
            map(vma_fields, oracle.vmas())
        )
        for mine, theirs in zip(space.vmas(), oracle.vmas()):
            if mine.backing is not ANONYMOUS:
                assert mine.backing.file is theirs.backing.file
        assert space.mmap_calls == oracle.mmap_calls == len(plan)
        assert space.coverage_gaps() == oracle.coverage_gaps()
        for page in range(SPACE_PAGES):
            assert space.backing_value(page) == oracle.backing_value(page)


def test_add_after_a_restore_clears_the_memo():
    rig = Rig()
    snap = create_snapshot(rig.store, "fn", SPACE_PAGES, {5: 1, 6: 2})
    plan = MappingPlan()
    plan.add_anonymous(0, SPACE_PAGES)
    first = rig.vm("first")
    rig.run(first.restore(snap, plan))
    assert plan.layout(SPACE_PAGES) is plan.layout(SPACE_PAGES)

    plan.add_file(4, 4, snap.memory_file, 4)
    second = rig.vm("second")
    rig.run(second.restore(snap, plan))
    assert second.space.mmap_calls == 2
    assert list(map(vma_fields, second.space.vmas())) == [
        (0, 4, None, 0),
        (4, 4, snap.memory_file.name, 4),
        (8, SPACE_PAGES - 8, None, 0),
    ]
    assert second.space.backing_value(5) == 1
    assert list(map(vma_fields, first.space.vmas())) == [
        (0, SPACE_PAGES, None, 0)
    ]


def test_vms_restored_from_one_plan_stay_independent():
    rig = Rig()
    snap = create_snapshot(rig.store, "fn", SPACE_PAGES, {5: 1, 100: 2})
    plan = MappingPlan()
    plan.add_anonymous(0, SPACE_PAGES)
    plan.add_file(0, 64, snap.memory_file, 0)
    plan.add_file(96, 32, snap.memory_file, 96)
    one, two = rig.vm("one"), rig.vm("two")
    rig.run(one.restore(snap, plan))
    rig.run(two.restore(snap, plan))
    before = list(map(vma_fields, two.space.vmas()))
    version = two.space.version

    one.space.mmap_anonymous(0, 100)
    assert one.space.backing_value(5) == 0
    assert one.space.backing_value(100) == 2
    assert list(map(vma_fields, two.space.vmas())) == before
    assert list(map(vma_fields, plan.layout(SPACE_PAGES))) == before
    assert two.space.version == version
    assert two.space.backing_value(5) == 1


@pytest.mark.parametrize(
    "directive",
    [(0, 64, 8), (SPACE_PAGES - 8, 16, 0)],
    ids=["beyond-eof", "outside-space"],
)
def test_bad_directive_still_raises_from_restore(directive):
    rig = Rig()
    snap = create_snapshot(rig.store, "fn", SPACE_PAGES, {1: 1})
    small = rig.store.create("small", 64)
    plan = MappingPlan()
    plan.add_anonymous(0, SPACE_PAGES)
    start, npages, offset = directive
    plan.add_file(start, npages, small, offset)
    # Raised again by a second restore: a failed layout is not memoised.
    for label in ("first", "second"):
        with pytest.raises(SimulationError):
            rig.run(rig.vm(label).restore(snap, plan))


def test_apply_plan_rejects_a_mapped_space():
    rig = Rig()
    snap = create_snapshot(rig.store, "fn", SPACE_PAGES, {1: 1})
    vm = rig.vm()
    vm.space.mmap_anonymous(0, 8)
    with pytest.raises(SimulationError):
        rig.run(vm.apply_plan(full_file_plan(snap)))


def test_whole_guest_plans_are_built_once_per_snapshot():
    rig = Rig()
    snap = create_snapshot(rig.store, "fn", SPACE_PAGES, {1: 1})
    other = create_snapshot(rig.store, "other", SPACE_PAGES, {1: 1})
    assert full_file_plan(snap) is full_file_plan(snap)
    assert anonymous_plan(snap) is anonymous_plan(snap)
    assert full_file_plan(snap) is not full_file_plan(other)
    assert [vma_fields(v) for v in anonymous_plan(snap).layout(SPACE_PAGES)] == [
        (0, SPACE_PAGES, None, 0)
    ]
