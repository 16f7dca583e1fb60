"""The paper's benchmark functions as page-access trace generators.

FaaSnap never inspects function semantics — only the *page access
pattern* of the guest: which guest-physical pages an invocation
touches, in what order, how the set varies with input, what gets
allocated fresh and freed. Each function from the paper's Table 2 is
therefore modelled as a deterministic generator of guest access
traces (:class:`~repro.vm.vcpu.TraceColumns`), calibrated so that the
working-set sizes match Table 2 and warm execution times land in the
paper's ballpark.

Structure of a trace (see :mod:`repro.workloads.base`):

* **core** pages — runtime/interpreter pages touched by every
  invocation, scattered through guest-physical memory (fragmented by
  boot-time allocation), in an input-independent shuffled order;
* **variable** pages — a content-dependent sample from a larger pool
  of library/data pages, scaling with input size. This is what makes
  REAP's record-once working set go stale (§3, §6.3);
* **data** pages — sequential reads of long-lived data (read-list's
  512 MB list, recognition's model weights);
* **anonymous** pages — fresh heap allocations written during the
  invocation and (mostly) freed at its end, reused LIFO by the next
  invocation (§4.5's released set).
"""

from repro.workloads.base import (
    InputSpec,
    TracePair,
    WorkloadProfile,
    WorkloadTrace,
    build_layout,
    clean_snapshot_contents,
    generate_trace,
    generate_trace_pair,
)
from repro.workloads.registry import (
    BENCHMARK_FUNCTIONS,
    SYNTHETIC_FUNCTIONS,
    VARIABLE_INPUT_FUNCTIONS,
    get_profile,
    profile_names,
)

__all__ = [
    "BENCHMARK_FUNCTIONS",
    "InputSpec",
    "SYNTHETIC_FUNCTIONS",
    "TracePair",
    "VARIABLE_INPUT_FUNCTIONS",
    "WorkloadProfile",
    "WorkloadTrace",
    "build_layout",
    "clean_snapshot_contents",
    "generate_trace",
    "generate_trace_pair",
    "get_profile",
    "profile_names",
]
