"""Adaptive re-recording under working-set drift.

FaaSnap tolerates working-set change better than REAP, but any
recorded set goes stale if inputs keep drifting (paper §6.3 shows the
benefit shrinking as test inputs grow past the recorded ones; §7.2
notes snapshots should follow the workload). This module closes the
loop: count the *slow faults* of each invocation — the pages that had
to block on disk or user-level handling because the loading set
missed them — and re-run the record phase with the current input
once it crosses a threshold.

Re-recording costs one slower invocation's worth of daemon work off
the critical path (the record phase is unmeasured in the paper's
methodology, and here it reuses the normal pipeline), in exchange for
restoring the prefetch hit rate for the drifted workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.daemon import FaaSnapPlatform, FunctionHandle
from repro.core.policies import Policy
from repro.core.restore import InvocationResult
from repro.host.fault import FaultKind
from repro.workloads.base import INPUT_A, InputSpec


def slow_fault_count(result: InvocationResult) -> int:
    """Slow-path faults of one invocation: blocking majors plus
    user-level userfaultfd faults. The drift signal — fast anonymous
    and minor faults dilute the *fraction*, but every slow fault is
    ~100 us of avoidable stall, so the absolute count tracks how far
    the workload has moved past the recorded set."""
    return result.fault_count(FaultKind.MAJOR) + result.fault_count(
        FaultKind.UFFD
    )


@dataclass(frozen=True)
class AdaptiveConfig:
    """When to consider a snapshot stale."""

    #: Re-record once an invocation takes more slow faults than this
    #: (256 pages = 1 MB of missed working set at ~100 us each).
    stale_slow_faults: int = 256
    #: Back-off: minimum invocations between re-records.
    min_invocations_between_records: int = 2

    def __post_init__(self) -> None:
        if self.stale_slow_faults < 1:
            raise ValueError("stale_slow_faults must be >= 1")
        if self.min_invocations_between_records < 1:
            raise ValueError("back-off must be >= 1 invocation")


@dataclass
class AdaptiveStats:
    invocations: int = 0
    re_records: int = 0
    slow_counts: List[int] = field(default_factory=list)


class AdaptiveSnapshotManager:
    """Per-function controller that refreshes stale snapshots."""

    def __init__(
        self,
        platform: FaaSnapPlatform,
        function: FunctionHandle,
        policy: Policy = Policy.FAASNAP,
        config: Optional[AdaptiveConfig] = None,
        initial_record_input: InputSpec = INPUT_A,
    ):
        if not policy.needs_record_phase:
            raise ValueError(
                f"{policy.value} has no working set to adapt"
            )
        self.platform = platform
        self.function = function
        self.policy = policy
        self.config = config or AdaptiveConfig()
        self.record_input = initial_record_input
        self.stats = AdaptiveStats()
        self._since_last_record = 0

    def invoke(self, test_input: InputSpec) -> Tuple[InvocationResult, bool]:
        """Serve one invocation; returns ``(result, re_recorded)``.

        If the invocation's slow-fault fraction crossed the staleness
        threshold (and the back-off allows), the *next* invocation
        will use artefacts re-recorded with this input.
        """
        result = self.platform.invoke(
            self.function,
            test_input,
            self.policy,
            record_input=self.record_input,
        )
        slow = slow_fault_count(result)
        self.stats.invocations += 1
        self.stats.slow_counts.append(slow)
        self._since_last_record += 1

        re_recorded = False
        stale = slow > self.config.stale_slow_faults
        backed_off = (
            self._since_last_record
            < self.config.min_invocations_between_records
        )
        if stale and not backed_off:
            # Refresh with the input that exposed the drift; the
            # record phase runs through the normal (cached) pipeline.
            self.record_input = test_input
            self.platform.ensure_record(
                self.function, self.record_input, self.policy
            )
            self.stats.re_records += 1
            self._since_last_record = 0
            re_recorded = True
        return result, re_recorded
