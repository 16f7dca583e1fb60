"""Working-set quality analysis.

The paper's Section 3 analysis boils down to two numbers about a
recorded working set faced with a new invocation:

* **coverage** — what fraction of the pages the new invocation
  touches were captured (those become fast faults);
* **waste** — what fraction of the prefetched pages go unused (those
  cost fetch bandwidth and page-cache memory for nothing, §7.3).

REAP's exact fault set maximises precision but loses coverage the
moment inputs change; FaaSnap's host page recording trades some waste
for coverage. These helpers make that trade measurable for any
record/test pair, giving operators the signal for when a snapshot has
gone stale (see :mod:`repro.core.adaptive`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Set

from repro.core.restore import RecordArtifacts
from repro.workloads.base import InputSpec, WorkloadTrace, generate_trace


@dataclass(frozen=True)
class CoverageReport:
    """How well a prefetch set matches an invocation's accesses."""

    #: Pages the test invocation touches.
    touched_pages: int
    #: Pages in the prefetch (working/loading) set.
    prefetch_pages: int
    #: Touched pages that the prefetch set captured.
    covered_pages: int

    @property
    def coverage(self) -> float:
        """Fraction of touched pages served by the prefetch set."""
        return self.covered_pages / self.touched_pages if self.touched_pages else 1.0

    @property
    def waste(self) -> float:
        """Fraction of prefetched pages the invocation never used."""
        if self.prefetch_pages == 0:
            return 0.0
        return 1.0 - self.covered_pages / self.prefetch_pages

    @property
    def miss_pages(self) -> int:
        """Touched pages outside the prefetch set (slow-path faults)."""
        return self.touched_pages - self.covered_pages


def _coverage(prefetch: Set[int], trace: WorkloadTrace) -> CoverageReport:
    touched = trace.touched_pages
    return CoverageReport(
        touched_pages=len(touched),
        prefetch_pages=len(prefetch),
        covered_pages=len(touched & prefetch),
    )


def trace_for(
    artifacts: RecordArtifacts, test_input: InputSpec
) -> WorkloadTrace:
    """The trace a test invocation of ``test_input`` would execute."""
    return generate_trace(
        artifacts.profile, test_input, prior=artifacts.record_trace
    )


def faasnap_coverage(
    artifacts: RecordArtifacts,
    test_input: InputSpec,
    trace: Optional[WorkloadTrace] = None,
) -> CoverageReport:
    """Coverage of FaaSnap's prefetch for a hypothetical invocation.

    FaaSnap serves a touched page fast if it is in the loading set
    (prefetched), or if it is zero in the snapshot (anonymous fault) —
    so the effective fast set is loading-set pages plus zero pages.
    """
    if artifacts.loading_set is None:
        raise ValueError("artifacts carry no FaaSnap loading set")
    trace = trace or trace_for(artifacts, test_input)
    nonzero = artifacts.warm_snapshot.memory_file.pages
    fast = set(artifacts.loading_set.covered_pages())
    fast |= {p for p in trace.touched_pages if p not in nonzero}
    return _coverage(fast, trace)


def reap_coverage(
    artifacts: RecordArtifacts,
    test_input: InputSpec,
    trace: Optional[WorkloadTrace] = None,
) -> CoverageReport:
    """Coverage of REAP's working set for a hypothetical invocation."""
    if artifacts.reap_ws is None:
        raise ValueError("artifacts carry no REAP working set")
    trace = trace or trace_for(artifacts, test_input)
    return _coverage(
        set(artifacts.reap_ws.pages_in_fault_order), trace
    )
