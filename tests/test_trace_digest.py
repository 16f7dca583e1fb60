"""A pin of trace synthesis.

Every registry profile's record trace at input A, and the test traces
derived from it for input B and for inputs at half and twice A's size,
hashed column by column: pages, write flags, stored values and the
exact think times, then each trace's freed pages, heap high-water mark
and tail compute. The digest was recorded while traces were still
synthesized as lists of :class:`~repro.vm.vcpu.GuestAccess` objects,
so it holds the column synthesis to that older form bit for bit.
"""

import hashlib
from array import array

from repro.workloads import generate_trace_pair, get_profile, profile_names
from repro.workloads.base import INPUT_A, InputSpec

#: sha256 of :func:`trace_digest`.
TRACE_DIGEST = (
    "3d3c6fff660335d66323bee66426d0f4d1635ff859d3f91358c296675569b38c"
)


def pinned_traces():
    """Each profile's record trace, then its three derived traces."""
    for name in profile_names():
        profile = get_profile(name)
        specs = (profile.input_b(), InputSpec(3, 0.5), InputSpec(4, 2.0))
        for index, spec in enumerate(specs):
            pair = generate_trace_pair(profile, INPUT_A, spec)
            if index == 0:
                yield pair.record
            yield pair.test


def trace_digest() -> str:
    digest = hashlib.sha256()
    for trace in pinned_traces():
        columns = trace.columns
        digest.update(
            repr(
                (
                    trace.profile.name,
                    trace.input,
                    trace.freed_pages,
                    trace.heap_bump,
                    trace.tail_think_us.hex(),
                )
            ).encode()
        )
        digest.update(array("q", columns.pages).tobytes())
        digest.update(bytes(columns.writes))
        digest.update(
            array(
                "q", [-1 if value is None else value for value in columns.values]
            ).tobytes()
        )
        digest.update(",".join(map(float.hex, columns.thinks)).encode())
    return digest.hexdigest()


def test_trace_synthesis_matches_recorded_digest():
    assert trace_digest() == TRACE_DIGEST
