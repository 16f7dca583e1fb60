"""Serving vocabulary shared by every scheduler: start kinds,
invocation outcomes, the keep-alive pool and the serving report.

Paper §7.1's serving hierarchy: an invocation lands on a warm VM if
one is idle, is served from a snapshot if one exists, and cold-boots
otherwise. Warm VMs are kept alive for a TTL after their last
invocation (AWS Lambda keeps 15-60 minutes, §2.1) and are evicted
LRU-first under a host memory budget — eviction-to-snapshot being
exactly the role the paper assigns FaaSnap.

The loop that applies these rules is
:class:`repro.cluster.ClusterSimulator`. It runs at two fidelities:
page-level restores, or a measured
:class:`~repro.fleet.costs.FunctionCosts` table charged per start
(``costs=``), which keeps a long fleet trace cheap to replay.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple


class StartKind(enum.Enum):
    WARM = "warm"
    SNAPSHOT = "snapshot"
    COLD = "cold"


class InvocationOutcome(enum.Enum):
    """The defined end state of one arrival.

    Historically an invocation that raised inside a host process had
    *no* defined outcome — the failure either crashed the run or
    vanished. Every arrival now ends in exactly one of these states,
    and reports account for all of them.
    """

    #: Completed on the first attempt.
    OK = "ok"
    #: Completed, but only after one or more retries.
    RETRIED = "retried"
    #: Completed because a tail-latency hedge attempt finished first.
    HEDGE_WON = "hedge-won"
    #: Rejected at admission by load shedding; never attempted.
    SHED = "shed"
    #: All attempts failed (crash, device error, deadline, budget).
    FAILED = "failed"


#: Outcomes that count as successfully served for availability.
SERVED_OK = frozenset(
    {
        InvocationOutcome.OK,
        InvocationOutcome.RETRIED,
        InvocationOutcome.HEDGE_WON,
    }
)


@dataclass
class PooledVm:
    """A VM tracked by the keep-alive machinery."""

    function: str
    memory_mb: float
    busy_until: float
    last_used: float
    #: True while the VM sits in an idle pool; cleared on reuse and
    #: eviction so stale heap entries can be recognised and skipped.
    idle: bool = False


class IdlePool:
    """Idle VMs indexed two ways: per-function deques ordered
    oldest-first by ``last_used`` (completions arrive in completion
    order, so appends keep the order), and a lazy global min-heap over
    ``last_used`` for TTL expiry and LRU eviction.

    A VM reused or evicted since its heap entry was pushed leaves the
    entry behind as garbage; consumers detect that by re-checking
    ``vm.idle`` and the recorded timestamp. This replaces the old
    rescan-every-pool / ``list.remove`` bookkeeping that made large
    traces O(n²).
    """

    def __init__(self) -> None:
        self._pools: Dict[str, Deque[PooledVm]] = {}
        self._heap: List[Tuple[float, int, PooledVm]] = []
        self._seq = itertools.count()

    def park(self, vm: PooledVm) -> None:
        vm.idle = True
        self._pools.setdefault(vm.function, deque()).append(vm)
        heapq.heappush(self._heap, (vm.last_used, next(self._seq), vm))

    def _unpark(self, vm: PooledVm) -> None:
        pool = self._pools[vm.function]
        if pool[-1] is vm:
            pool.pop()
        elif pool[0] is vm:
            pool.popleft()
        else:  # pragma: no cover - equal-timestamp stragglers
            pool.remove(vm)
        vm.idle = False

    def has_idle(self, function: str) -> bool:
        return bool(self._pools.get(function))

    def idle_functions(self) -> List[str]:
        """Sorted names of functions with at least one idle VM (the
        sharded cluster publishes this in its barrier digests so the
        router can answer ``has_idle_warm`` remotely)."""
        return sorted(fn for fn, pool in self._pools.items() if pool)

    def __len__(self) -> int:
        """Idle VMs across all functions (the idle-pool-size gauge)."""
        return sum(len(pool) for pool in self._pools.values())

    def reuse_mru(self, function: str) -> Optional[PooledVm]:
        """Claim the most recently used idle VM of ``function``."""
        pool = self._pools.get(function)
        if not pool:
            return None
        vm = pool[-1]
        self._unpark(vm)
        return vm

    def pop_expired(self, now: float, ttl_us: float) -> List[PooledVm]:
        """Claim every idle VM whose keep-alive has lapsed."""
        expired: List[PooledVm] = []
        while self._heap:
            parked_at, _, vm = self._heap[0]
            if not vm.idle or vm.last_used != parked_at:
                heapq.heappop(self._heap)  # stale entry
                continue
            if now - parked_at > ttl_us:
                heapq.heappop(self._heap)
                self._unpark(vm)
                expired.append(vm)
            else:
                break  # the oldest survivor fixes all the rest
        return expired

    def pop_lru(self) -> Optional[PooledVm]:
        """Claim the least recently used idle VM, if any."""
        while self._heap:
            parked_at, _, vm = heapq.heappop(self._heap)
            if vm.idle and vm.last_used == parked_at:
                self._unpark(vm)
                return vm
        return None


@dataclass
class ServedInvocation:
    time_us: float
    function: str
    #: Start kind of the winning attempt; ``None`` when the arrival
    #: never started (shed, or failed before any start decision).
    kind: Optional[StartKind]
    latency_us: float
    #: Host that served the invocation.
    host: str = "host0"
    #: Structured end state — see :class:`InvocationOutcome`.
    outcome: InvocationOutcome = InvocationOutcome.OK
    #: Attempts launched on its behalf (retries and hedges included;
    #: 0 for a shed arrival).
    attempts: int = 1

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (the exporters' serving-report schema)."""
        return {
            "time_us": self.time_us,
            "function": self.function,
            "kind": self.kind.value if self.kind is not None else None,
            "latency_us": self.latency_us,
            "host": self.host,
            "outcome": self.outcome.value,
            "attempts": self.attempts,
        }


@dataclass
class FleetReport:
    """Outcome of one serving run."""

    served: List[ServedInvocation] = field(default_factory=list)
    #: Memory in use (warm + running VMs, all hosts) sampled at each
    #: arrival, before the arrival's own VM reserves memory.
    memory_samples_mb: List[float] = field(default_factory=list)
    evictions: int = 0

    def count(self, kind: Optional[StartKind] = None) -> int:
        if kind is None:
            return len(self.served)
        return sum(1 for s in self.served if s.kind is kind)

    def fraction(self, kind: StartKind) -> float:
        return self.count(kind) / len(self.served) if self.served else 0.0

    def ok_invocations(self) -> List[ServedInvocation]:
        """The successfully served arrivals (ok / retried /
        hedge-won). Latency statistics are computed over these: a
        shed or failed arrival has no meaningful service latency, and
        including its sentinel value would corrupt the tails."""
        return [s for s in self.served if s.outcome in SERVED_OK]

    def outcome_counts(self) -> Dict[str, int]:
        """Arrivals per outcome, every outcome present (zeros too) so
        serialized reports have a stable shape."""
        counts = {outcome.value: 0 for outcome in InvocationOutcome}
        for s in self.served:
            counts[s.outcome.value] += 1
        return counts

    def availability(self) -> float:
        """Fraction of arrivals successfully served (1.0 when there
        were no arrivals — an empty run failed nobody)."""
        if not self.served:
            return 1.0
        return len(self.ok_invocations()) / len(self.served)

    def total_attempts(self) -> int:
        return sum(s.attempts for s in self.served)

    def retry_amplification(self) -> float:
        """Attempts launched per arrival (1.0 = no extra work; 0.0
        for an empty run). Retries and hedges both amplify."""
        if not self.served:
            return 0.0
        return self.total_attempts() / len(self.served)

    def latency_percentile(self, percentile: float) -> float:
        """Latency at ``percentile`` (0..100) by the nearest-rank
        method: the smallest observation with at least ``percentile``
        percent of the sample at or below it, microseconds. Computed
        over successfully served arrivals; 0.0 when none succeeded
        (e.g. a fully-shed overload run)."""
        ok = self.ok_invocations()
        if not ok:
            return 0.0
        ordered = sorted(s.latency_us for s in ok)
        if percentile <= 0:
            return ordered[0]
        rank = math.ceil(percentile / 100.0 * len(ordered))
        return ordered[min(len(ordered), rank) - 1]

    def mean_latency_us(self) -> float:
        ok = self.ok_invocations()
        if not ok:
            return 0.0
        return sum(s.latency_us for s in ok) / len(ok)

    def mean_memory_mb(self) -> float:
        if not self.memory_samples_mb:
            return 0.0
        return sum(self.memory_samples_mb) / len(self.memory_samples_mb)
