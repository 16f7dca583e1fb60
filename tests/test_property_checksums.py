"""Property test: sparse snapshot checksums equal the dense definition.

:meth:`StoredFile.chunk_checksums` visits only non-zero pages and folds
each run of zero pages with one multiplication. This checks it against
the definition — 32-bit FNV-1a over every page's content token, chunk
by chunk, holes hashing as zero — kept here as a plain loop.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment
from repro.storage import BlockDevice, DeviceSpec, FileStore


def dense_checksums(file, chunk_pages):
    checksums = []
    for start in range(0, file.num_pages, chunk_pages):
        digest = 2166136261
        for index in range(start, min(start + chunk_pages, file.num_pages)):
            value = file.pages.get(index, 0)
            digest = ((digest ^ (value & 0xFFFFFFFF)) * 16777619) & 0xFFFFFFFF
        checksums.append(digest)
    return tuple(checksums)


def _store():
    env = Environment()
    device = BlockDevice(
        env, DeviceSpec("d", 100.0, 10.0, 1589.0, 285_000, queue_depth=16)
    )
    return FileStore(env, device)


tokens = st.one_of(
    st.just(0),  # explicit zero entries hash like holes
    st.integers(1, 9),
    st.integers(-(2**40), 2**40),
    st.sampled_from([2**32, 2**32 + 5, -1]),
)


@st.composite
def files(draw):
    """A page count and a sparse (a few entries) or dense (at least
    half the pages) content map."""
    num_pages = draw(st.integers(0, 80))
    if num_pages == 0:
        return 0, {}
    dense = draw(st.booleans())
    contents = draw(
        st.dictionaries(
            st.integers(0, num_pages - 1),
            tokens,
            min_size=num_pages // 2 if dense else 0,
            max_size=num_pages if dense else 6,
        )
    )
    return num_pages, contents


@settings(max_examples=200, deadline=None)
@given(files(), st.booleans(), st.data())
def test_chunk_checksums_match_dense_fnv(spec, sparse, data):
    num_pages, contents = spec
    file = _store().create("f", num_pages, pages=contents, sparse=sparse)
    chunk_pages = data.draw(st.integers(1, num_pages + 1))
    assert file.chunk_checksums(chunk_pages) == dense_checksums(
        file, chunk_pages
    )


def test_every_chunk_size_on_a_short_last_chunk():
    file = _store().create(
        "f", 37, pages={0: 5, 1: 0, 17: 2**33 + 1, 35: 9, 36: -7}
    )
    for chunk_pages in range(1, file.num_pages + 2):
        assert file.chunk_checksums(chunk_pages) == dense_checksums(
            file, chunk_pages
        )
