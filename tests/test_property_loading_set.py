"""Property-based tests for loading-set construction invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.loading_set import _merge_runs, build_loading_set
from repro.core.working_set import WorkingSetGroups
from repro.storage.filestore import page_runs

pages_strategy = st.sets(st.integers(min_value=0, max_value=5000), max_size=400)


@st.composite
def working_sets(draw):
    pages = sorted(draw(pages_strategy))
    groups = {}
    group = 1
    for index, page in enumerate(pages):
        if index and draw(st.booleans()):
            group += 1
        groups[page] = group
    return WorkingSetGroups(group_of=groups)


@given(pages_strategy)
def test_runs_partition_pages_exactly(pages):
    ordered = sorted(pages)
    starts, ends = page_runs(ordered)
    covered = []
    for start, end in zip(starts, ends):
        assert start < end
        covered.extend(range(start, end))
    assert covered == ordered
    # Maximal: consecutive runs never touch.
    assert all(end < start for end, start in zip(ends, starts[1:]))


@given(pages_strategy, st.integers(min_value=0, max_value=64))
def test_merged_runs_cover_all_pages_and_respect_gap(pages, gap):
    ordered = sorted(pages)
    merged = _merge_runs(*page_runs(ordered), gap)
    covered = set()
    previous_end = None
    for start, npages in merged:
        assert npages >= 1
        if previous_end is not None:
            # Surviving gaps must exceed the merge threshold.
            assert start - previous_end > gap
        previous_end = start + npages
        covered.update(range(start, start + npages))
    assert set(ordered) <= covered


@given(working_sets(), pages_strategy, st.integers(min_value=0, max_value=64))
@settings(max_examples=60)
def test_loading_set_invariants(ws, nonzero, gap):
    ls = build_loading_set(ws, nonzero, merge_gap=gap)
    essential = set(ws.pages) & set(nonzero)

    # 1. Every essential page is covered; coverage never shrinks it.
    covered = ls.covered_pages()
    assert essential <= covered
    assert ls.essential_pages == len(essential)

    # 2. Accounting adds up.
    assert ls.total_pages == sum(r.npages for r in ls.regions)
    assert ls.total_pages >= ls.essential_pages
    assert ls.gap_pages == ls.total_pages - ls.essential_pages

    # 3. Regions are disjoint in guest space.
    seen = set()
    for region in ls.regions:
        span = set(range(region.start, region.end))
        assert not (span & seen)
        seen |= span

    # 4. File offsets tile the file exactly, in list order.
    offset = 0
    for region in ls.regions:
        assert region.file_offset == offset
        offset += region.npages
    assert offset == ls.total_pages

    # 5. Regions are sorted by (group, start) and each region's group
    # is the minimum group of its member WS pages.
    keys = [(r.group, r.start) for r in ls.regions]
    assert keys == sorted(keys)
    for region in ls.regions:
        member_groups = [
            ws.group(p)
            for p in range(region.start, region.end)
            if p in ws
        ]
        assert member_groups
        assert region.group == min(member_groups)

    # 6. Merging never merges fewer regions than exist unmerged.
    assert ls.region_count <= ls.unmerged_region_count


@given(working_sets(), pages_strategy)
@settings(max_examples=40)
def test_larger_merge_gap_never_increases_region_count(ws, nonzero):
    small = build_loading_set(ws, nonzero, merge_gap=2)
    large = build_loading_set(ws, nonzero, merge_gap=32)
    assert large.region_count <= small.region_count
    assert large.total_pages >= small.total_pages
