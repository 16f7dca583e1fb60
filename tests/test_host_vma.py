"""Unit tests for address-space / VMA semantics."""

import pytest

from repro.host import ANONYMOUS, AddressSpace, FileBacking
from repro.sim import Environment, SimulationError
from repro.storage import BlockDevice, DeviceSpec, FileStore


@pytest.fixture
def store():
    env = Environment()
    device = BlockDevice(
        env, DeviceSpec("d", 100.0, 10.0, 1000.0, 1e6, queue_depth=4)
    )
    return FileStore(env, device)


def test_requires_positive_size():
    with pytest.raises(SimulationError):
        AddressSpace(0)


def test_empty_space_has_one_gap():
    space = AddressSpace(100)
    assert space.resolve(0) is None
    assert space.coverage_gaps() == [(0, 100)]


def test_anonymous_mapping_resolves(store):
    space = AddressSpace(100)
    space.mmap_anonymous(0, 100)
    vma = space.resolve(50)
    assert vma is not None
    assert vma.backing is ANONYMOUS
    assert space.coverage_gaps() == []
    assert space.mmap_calls == 1


def test_file_mapping_offsets(store):
    f = store.create("mem", 50)
    space = AddressSpace(100)
    space.mmap_file(10, 20, f, 5)
    vma = space.resolve(15)
    assert isinstance(vma.backing, FileBacking)
    assert vma.file_page(15) == 10  # 5 + (15 - 10)
    assert vma.file_page(10) == 5
    assert vma.file_page(29) == 24


def test_file_mapping_beyond_eof_rejected(store):
    f = store.create("mem", 10)
    space = AddressSpace(100)
    with pytest.raises(SimulationError):
        space.mmap_file(0, 20, f, 0)


def test_mapping_outside_space_rejected(store):
    space = AddressSpace(10)
    with pytest.raises(SimulationError):
        space.mmap_anonymous(5, 10)


def test_map_fixed_overlay_splits_underlying(store):
    f = store.create("mem", 100)
    space = AddressSpace(100)
    space.mmap_anonymous(0, 100)
    space.mmap_file(30, 10, f, 30)
    assert len(space.vmas()) == 3
    assert space.resolve(29).backing is ANONYMOUS
    assert isinstance(space.resolve(35).backing, FileBacking)
    assert space.resolve(40).backing is ANONYMOUS
    assert space.coverage_gaps() == []


def test_faasnap_three_layer_hierarchy(store):
    """The exact layering of paper Figure 4: anonymous base, memory
    file for non-zero regions, loading-set file on top."""
    mem = store.create("mem", 100)
    loading = store.create("loading", 20)
    space = AddressSpace(100)
    space.mmap_anonymous(0, 100)  # layer 1
    space.mmap_file(10, 40, mem, 10)  # layer 2: non-zero region
    space.mmap_file(60, 20, mem, 60)  # layer 2: non-zero region
    space.mmap_file(20, 10, loading, 0)  # layer 3: loading set
    # 0-9 anon, 10-19 mem, 20-29 loading, 30-49 mem, 50-59 anon,
    # 60-79 mem, 80-99 anon
    assert space.resolve(5).backing is ANONYMOUS
    assert space.resolve(12).backing.file is mem
    assert space.resolve(25).backing.file is loading
    assert space.resolve(25).file_page(25) == 5
    assert space.resolve(35).backing.file is mem
    assert space.resolve(35).file_page(35) == 35
    assert space.resolve(55).backing is ANONYMOUS
    assert space.resolve(65).backing.file is mem
    assert space.resolve(85).backing is ANONYMOUS
    assert space.coverage_gaps() == []


def test_overlay_clears_pte_and_contents(store):
    space = AddressSpace(10)
    space.mmap_anonymous(0, 10)
    space.install_pte(3, 7)
    space.ept.add(3)
    space.write_anon(4, 9)
    space.mmap_anonymous(2, 5)
    assert not space.is_installed(3)
    assert 3 not in space.ept
    assert 4 not in space.anon_contents


def test_backing_value_priority(store):
    f = store.create("mem", 10, pages={2: 42})
    space = AddressSpace(10)
    space.mmap_file(0, 10, f, 0)
    assert space.backing_value(2) == 42
    assert space.backing_value(3) == 0
    space.write_anon(2, 99)  # private dirty copy wins
    assert space.backing_value(2) == 99


def test_backing_value_unmapped_raises(store):
    space = AddressSpace(10)
    with pytest.raises(SimulationError):
        space.backing_value(5)


def test_rss_counts_installed_ptes(store):
    space = AddressSpace(10)
    space.mmap_anonymous(0, 10)
    assert space.rss_pages() == 0
    space.install_pte(0, 1)
    space.install_pte(5, 2)
    assert space.rss_pages() == 2


def test_resolve_out_of_range_raises(store):
    space = AddressSpace(10)
    with pytest.raises(SimulationError):
        space.resolve(10)


def test_vmas_sorted_by_address(store):
    space = AddressSpace(100)
    space.mmap_anonymous(50, 10)
    space.mmap_anonymous(0, 10)
    space.mmap_anonymous(20, 10)
    starts = [v.start for v in space.vmas()]
    assert starts == [0, 20, 50]


def test_adjacent_mappings_no_gap(store):
    space = AddressSpace(30)
    space.mmap_anonymous(0, 10)
    space.mmap_anonymous(10, 10)
    space.mmap_anonymous(20, 10)
    assert space.coverage_gaps() == []
    assert len(space.vmas()) == 3
