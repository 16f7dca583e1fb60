"""Recovery policies and their runtime state.

The policy dataclasses here are immutable knobs the cluster scheduler
reads on its robust serving path: per-invocation deadlines, jittered
exponential-backoff retries under a global budget, tail-latency
hedging, health-driven failover, and admission-control load shedding
with a degraded restore mode. :class:`RetryBudget` and
:class:`HedgeTracker` are the small pieces of mutable state those
policies need at run time; the scheduler owns one of each per run.

Everything is deterministic: backoff jitter draws from the seeded
``Environment.rng``, and the hedge threshold is a pure function of
the latencies observed so far.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.policies import Policy


@dataclass(frozen=True)
class RetryPolicy:
    """Jittered exponential backoff with a hard cap.

    ``backoff_us(attempt, rng)`` computes the pause before retry
    number ``attempt`` (1 = first retry):
    ``base * multiplier**(attempt-1)``, clamped to ``max_backoff_us``,
    then scaled by a uniform jitter in ``[1-jitter, 1]`` so that a
    thundering herd of simultaneous failures de-synchronises. The
    result is always in ``[0, max_backoff_us]``.
    """

    enabled: bool = False
    #: Total tries per invocation (first attempt included).
    max_attempts: int = 3
    base_backoff_us: float = 20_000.0
    multiplier: float = 2.0
    max_backoff_us: float = 1_000_000.0
    #: Fraction of the backoff randomised away, in [0, 1].
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_backoff_us < 0 or self.max_backoff_us < 0:
            raise ValueError("backoff times must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def backoff_us(self, attempt: int, rng) -> float:
        if attempt < 1:
            raise ValueError("attempt numbers are 1-based")
        backoff = self.base_backoff_us * self.multiplier ** (attempt - 1)
        backoff = min(backoff, self.max_backoff_us)
        if self.jitter > 0.0:
            backoff *= 1.0 - self.jitter * rng.random()
        return min(max(backoff, 0.0), self.max_backoff_us)


@dataclass(frozen=True)
class HedgePolicy:
    """Tail-latency hedging: once an attempt has been running longer
    than the ``percentile`` of observed attempt latencies (scaled by
    ``multiplier``), launch a second attempt on another healthy host
    and keep whichever finishes first, cancelling the loser. No
    hedges fire until ``min_samples`` latencies have been observed,
    and the threshold never drops below ``floor_us`` — both guards
    keep cold-start noise from triggering a hedging storm."""

    enabled: bool = False
    percentile: float = 95.0
    min_samples: int = 20
    floor_us: float = 10_000.0
    multiplier: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.percentile <= 100.0:
            raise ValueError("percentile must be in (0, 100]")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if self.floor_us < 0:
            raise ValueError("floor_us must be >= 0")
        if self.multiplier <= 0:
            raise ValueError("multiplier must be positive")


@dataclass(frozen=True)
class HealthPolicy:
    """How telemetry turns into host health.

    The :class:`~repro.faults.health.HealthMonitor` wakes every
    ``check_interval_us`` and marks a host unhealthy when it has seen
    ``error_threshold`` or more attempt failures within the trailing
    ``window_us`` (or when the host is crashed). An unhealthy host is
    drained — placement stops routing to it — and reintegrated after
    ``reintegrate_after_us`` of quiet.

    ``fail_slow_factor`` arms gray-failure detection: each host's
    first ``fail_slow_min_samples`` restore latencies freeze a
    per-host baseline median, and when the median of the most recent
    ``fail_slow_min_samples`` (within a ``fail_slow_window``-sample
    history) exceeds ``factor × baseline`` the host is drained even
    though it reports no errors. ``None`` (the default) keeps the
    detector off and the monitor byte-identical to before.
    """

    enabled: bool = False
    check_interval_us: float = 250_000.0
    error_threshold: int = 3
    window_us: float = 2_000_000.0
    reintegrate_after_us: float = 1_000_000.0
    fail_slow_factor: Optional[float] = None
    fail_slow_min_samples: int = 8
    fail_slow_window: int = 32

    def __post_init__(self) -> None:
        if self.check_interval_us <= 0:
            raise ValueError("check_interval_us must be positive")
        if self.error_threshold < 1:
            raise ValueError("error_threshold must be >= 1")
        if self.window_us <= 0 or self.reintegrate_after_us < 0:
            raise ValueError("health windows must be positive")
        if self.fail_slow_factor is not None and self.fail_slow_factor <= 1.0:
            raise ValueError("fail_slow_factor must be > 1 (or None)")
        if self.fail_slow_min_samples < 2:
            raise ValueError("fail_slow_min_samples must be >= 2")
        if self.fail_slow_window < self.fail_slow_min_samples:
            raise ValueError(
                "fail_slow_window must be >= fail_slow_min_samples"
            )


@dataclass(frozen=True)
class SheddingPolicy:
    """Admission control under overload.

    With ``max_queue_depth`` set, an arrival finding that many
    invocations already queued+active on its chosen host is rejected
    outright (outcome ``shed``). Before that point, crossing
    ``degraded_queue_depth`` switches the host to the cheaper
    ``degraded_policy`` restore path (by default plain Firecracker
    snapshots — give up the page-level restore win to shed load
    gracefully instead of falling over)."""

    max_queue_depth: Optional[int] = None
    degraded_queue_depth: Optional[int] = None
    degraded_policy: Policy = Policy.FIRECRACKER

    def __post_init__(self) -> None:
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if (
            self.degraded_queue_depth is not None
            and self.degraded_queue_depth < 1
        ):
            raise ValueError("degraded_queue_depth must be >= 1")
        if (
            self.max_queue_depth is not None
            and self.degraded_queue_depth is not None
            and self.degraded_queue_depth > self.max_queue_depth
        ):
            raise ValueError(
                "degraded_queue_depth must not exceed max_queue_depth"
            )

    @property
    def enabled(self) -> bool:
        return (
            self.max_queue_depth is not None
            or self.degraded_queue_depth is not None
        )


@dataclass(frozen=True)
class RecoveryPolicy:
    """The whole self-healing configuration for one cluster run."""

    retry: RetryPolicy = RetryPolicy()
    hedge: HedgePolicy = HedgePolicy()
    health: HealthPolicy = HealthPolicy()
    shedding: SheddingPolicy = SheddingPolicy()
    #: End-to-end wall budget per invocation (``None`` = unlimited).
    deadline_us: Optional[float] = None
    #: Retry on a different healthy host when possible.
    failover: bool = True
    #: Global retry budget: the bucket starts at ``retry_budget_min``
    #: tokens and earns ``retry_budget_ratio`` per arrival, so retry
    #: amplification under a correlated failure is bounded at roughly
    #: ``ratio`` of offered load.
    retry_budget_min: float = 10.0
    retry_budget_ratio: float = 0.1

    def __post_init__(self) -> None:
        if self.deadline_us is not None and self.deadline_us <= 0:
            raise ValueError("deadline_us must be positive (or None)")
        if self.retry_budget_min < 0 or self.retry_budget_ratio < 0:
            raise ValueError("retry budget parameters must be >= 0")

    @property
    def armed_features(self) -> Tuple[str, ...]:
        """Names of the enabled recovery features. Non-empty means the
        scheduler must take the robust serving path (each attempt a
        process inside a retry/hedge round); empty (the default
        policy) runs each invocation as one inline attempt."""
        features = []
        if self.retry.enabled:
            features.append("retries")
        if self.hedge.enabled:
            features.append("hedging")
        if self.health.enabled:
            features.append("health")
        if self.shedding.enabled:
            features.append("shedding")
        if self.deadline_us is not None:
            features.append("deadline")
        return tuple(features)

    @classmethod
    def full(
        cls,
        deadline_us: Optional[float] = 30_000_000.0,
        max_queue_depth: Optional[int] = 64,
        degraded_queue_depth: Optional[int] = 16,
    ) -> "RecoveryPolicy":
        """Everything on — the configuration chaos scenarios defend."""
        return cls(
            retry=RetryPolicy(enabled=True),
            hedge=HedgePolicy(enabled=True),
            health=HealthPolicy(enabled=True),
            shedding=SheddingPolicy(
                max_queue_depth=max_queue_depth,
                degraded_queue_depth=degraded_queue_depth,
            ),
            deadline_us=deadline_us,
        )


#: The do-nothing policy: every feature off. A cluster run with this
#: policy and no fault plan is bit-identical to one predating the
#: fault subsystem.
DISABLED_RECOVERY = RecoveryPolicy()


class RetryBudget:
    """A token bucket bounding cluster-wide retry amplification.

    Starts at ``min_budget`` tokens, earns ``ratio`` tokens per
    arrival (capped at ``min_budget + ratio * arrivals`` — deposits
    are never discarded within a run, only bounded by offered load),
    and each retry spends one token. When the bucket is empty,
    retries are denied and the invocation fails fast — which is the
    point: during a correlated outage, retrying harder only adds
    load to whatever is still alive.
    """

    def __init__(self, min_budget: float = 10.0, ratio: float = 0.1):
        if min_budget < 0 or ratio < 0:
            raise ValueError("budget parameters must be >= 0")
        self.min_budget = float(min_budget)
        self.ratio = float(ratio)
        self.tokens = float(min_budget)
        self.arrivals = 0
        self.spent = 0
        self.denied = 0

    def on_arrival(self) -> None:
        self.arrivals += 1
        self.tokens += self.ratio

    def try_spend(self) -> bool:
        """Consume one token if available; False denies the retry."""
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            self.spent += 1
            return True
        self.denied += 1
        return False

    def summary(self) -> dict:
        """Point-in-time budget snapshot (flight-recorder postmortem
        context)."""
        return {
            "tokens": round(self.tokens, 4),
            "arrivals": self.arrivals,
            "spent": self.spent,
            "denied": self.denied,
        }

    @classmethod
    def partitioned(
        cls, min_budget: float, ratio: float, partitions: int
    ) -> "RetryBudget":
        """One partition of a cluster-wide budget split ``partitions``
        ways: the floor is divided evenly while the per-arrival earn
        rate stays unchanged (each partition only sees its own
        arrivals, so cluster-wide earnings still sum to
        ``ratio * arrivals``). Sharded cluster execution gives every
        host one partition and rebalances the pooled tokens at each
        window barrier with :func:`rebalance_tokens`."""
        if partitions < 1:
            raise ValueError("partitions must be >= 1")
        return cls(min_budget / partitions, ratio)


def rebalance_tokens(tokens: Sequence[float]) -> List[float]:
    """Deterministic barrier reconciliation of partitioned retry
    budgets: pool every partition's unspent tokens and redistribute
    the pool evenly.

    The sum is taken in partition order, so the result is a pure
    function of the input list — independent of how many worker
    processes the partitions happen to be packed into. This keeps the
    cluster-wide spend bound intact (the pool is conserved) while
    letting a quiet shard's earnings fund retries in a failing one,
    which is what a single cluster-wide bucket would have done.
    """
    if not tokens:
        return []
    pool = 0.0
    for value in tokens:
        pool += value
    share = pool / len(tokens)
    return [share] * len(tokens)


class HedgeTracker:
    """Observed attempt latencies → hedge-fire threshold.

    Keeps the most recent ``window`` completed-attempt latencies and
    derives the hedge threshold as the policy percentile of that
    window (nearest-rank, matching
    :meth:`repro.fleet.scheduler.FleetReport.latency_percentile`)
    times the policy multiplier, floored at ``floor_us``. Returns
    ``None`` — never hedge — until ``min_samples`` latencies arrive.
    """

    def __init__(self, policy: HedgePolicy, window: int = 512):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.policy = policy
        self.window = window
        self._latencies: List[float] = []
        self.fired = 0
        self.won = 0
        self.cancelled = 0

    def record(self, latency_us: float) -> None:
        self._latencies.append(latency_us)
        if len(self._latencies) > self.window:
            del self._latencies[: -self.window]

    @property
    def samples(self) -> int:
        return len(self._latencies)

    def threshold_us(self) -> Optional[float]:
        if len(self._latencies) < self.policy.min_samples:
            return None
        ordered = sorted(self._latencies)
        rank = max(
            0,
            min(
                len(ordered) - 1,
                int(round(self.policy.percentile / 100.0 * len(ordered)))
                - 1,
            ),
        )
        return max(
            ordered[rank] * self.policy.multiplier, self.policy.floor_us
        )

    def summary(self) -> dict:
        """Point-in-time hedge snapshot (flight-recorder postmortem
        context)."""
        threshold = self.threshold_us()
        return {
            "fired": self.fired,
            "won": self.won,
            "cancelled": self.cancelled,
            "samples": self.samples,
            "threshold_us": (
                round(threshold, 3) if threshold is not None else None
            ),
        }
