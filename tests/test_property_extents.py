"""Property test: a sparse read's extents equal the per-page definition.

:meth:`StoredFile.extents` bisects the page map's data runs. This
checks it against the definition — walk every page of the window,
one device request per maximal run of data pages, holes free — kept
here as a plain loop, over sparse, dense, empty and full maps and
windows anywhere in the file.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment
from repro.storage import BlockDevice, DeviceSpec, FileStore
from repro.storage.filestore import PAGE_SIZE

#: Where the file starts on its device: a second file sits before it.
OFFSET_PAGES = 3


def walked_extents(file, page_index, npages):
    extents = []
    run_start = None
    end = page_index + npages
    for page in range(page_index, end + 1):
        data = page < end and file.pages.get(page, 0) != 0
        if data and run_start is None:
            run_start = page
        elif not data and run_start is not None:
            extents.append(
                (
                    file.base_offset + run_start * PAGE_SIZE,
                    (page - run_start) * PAGE_SIZE,
                )
            )
            run_start = None
    return extents


@st.composite
def page_maps(draw, num_pages):
    """Contents of a ``num_pages``-page file: empty, full, a few
    scattered pages, most pages, or runs of data and holes of random
    lengths (one-page runs and one-page holes included)."""
    shape = draw(st.sampled_from(["empty", "full", "sparse", "dense", "runs"]))
    if shape == "empty":
        return {}
    if shape == "full":
        return {page: page + 1 for page in range(num_pages)}
    if shape in ("sparse", "dense"):
        pages = draw(
            st.sets(
                st.integers(0, num_pages - 1),
                min_size=num_pages // 2 if shape == "dense" else 0,
                max_size=num_pages if shape == "dense" else 6,
            )
        )
        return {page: page + 1 for page in pages}
    contents = {}
    page = draw(st.integers(0, 3))
    while page < num_pages:
        length = draw(st.integers(1, 4))
        for data_page in range(page, min(page + length, num_pages)):
            contents[data_page] = data_page + 1
        page += length + draw(st.integers(1, 3))
    return contents


@st.composite
def reads(draw):
    """A file (sparse or dense) and a window ``(page_index, npages)``
    inside it: at page 0, ending at the file's end, a single page, or
    anywhere."""
    num_pages = draw(st.integers(1, 60))
    contents = draw(page_maps(num_pages))
    sparse = draw(st.booleans())
    npages = draw(st.integers(1, num_pages))
    where = draw(st.sampled_from(["start", "end", "anywhere"]))
    if where == "start":
        page_index = 0
    elif where == "end":
        page_index = num_pages - npages
    else:
        page_index = draw(st.integers(0, num_pages - npages))
    return num_pages, contents, sparse, page_index, npages


def _store():
    env = Environment()
    device = BlockDevice(
        env, DeviceSpec("d", 100.0, 10.0, 1589.0, 285_000, queue_depth=16)
    )
    store = FileStore(env, device)
    store.create("before", OFFSET_PAGES)
    return store


@settings(max_examples=400, deadline=None)
@given(reads())
def test_extents_match_the_per_page_walk(read):
    num_pages, contents, sparse, page_index, npages = read
    file = _store().create("f", num_pages, pages=contents, sparse=sparse)
    extents = file.extents(page_index, npages)
    if sparse:
        assert extents == walked_extents(file, page_index, npages)
    else:
        assert extents == [
            (file.base_offset + page_index * PAGE_SIZE, npages * PAGE_SIZE)
        ]
    # Every data page of the window is read exactly once.
    read_pages = sum(nbytes for _, nbytes in extents) // PAGE_SIZE
    window = range(page_index, page_index + npages)
    data_pages = sum(1 for page in window if page in contents)
    assert read_pages == (data_pages if sparse else npages)
