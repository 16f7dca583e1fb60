"""Statistics and histograms over simulation measurements."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Tuple


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (0.0 for an empty sequence)."""
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def stddev(values: Sequence[float]) -> float:
    """Population standard deviation (0.0 for fewer than 2 values)."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    mu = mean(values)
    return math.sqrt(sum((v - mu) ** 2 for v in values) / len(values))


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive values (0.0 for empty input)."""
    values = list(values)
    if not values:
        return 0.0
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclass
class Histogram:
    """A histogram over power-of-two buckets (paper Figure 2 style).

    Bucket ``i`` counts values in ``[edges[i], edges[i+1])``; the last
    bucket is open-ended.
    """

    edges: List[float]
    counts: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.edges) < 2 or sorted(self.edges) != self.edges:
            raise ValueError("edges must be ascending with >= 2 entries")
        if not self.counts:
            self.counts = [0] * len(self.edges)

    def add(self, value: float) -> None:
        """Count one value."""
        index = 0
        for i, edge in enumerate(self.edges):
            if value >= edge:
                index = i
            else:
                break
        if value < self.edges[0]:
            index = 0
        self.counts[index] += 1

    def add_all(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    @property
    def total(self) -> int:
        return sum(self.counts)

    def percentile(self, percentile: float) -> float:
        """Nearest-rank percentile, resolved to the lower edge of the
        bucket holding that rank (the
        :meth:`FleetReport.latency_percentile` convention applied to
        bucketed data). Returns 0.0 for an empty histogram.
        """
        total = self.total
        if total == 0:
            return 0.0
        if percentile <= 0:
            rank = 1
        else:
            rank = min(total, math.ceil(percentile / 100.0 * total))
        cumulative = 0
        for edge, count in zip(self.edges, self.counts):
            cumulative += count
            if cumulative >= rank:
                return edge
        return self.edges[-1]

    def merge(self, other: "Histogram") -> "Histogram":
        """Combine two histograms over identical edges (per-host
        fault-time histograms folding into a cluster-wide one)."""
        if self.edges != other.edges:
            raise ValueError("cannot merge histograms with different edges")
        return Histogram(
            edges=list(self.edges),
            counts=[a + b for a, b in zip(self.counts, other.counts)],
        )

    def buckets(self) -> List[Tuple[str, int]]:
        """``(label, count)`` pairs; labels name the lower edge."""
        labels = []
        for i, edge in enumerate(self.edges):
            if i + 1 < len(self.edges):
                labels.append(f"[{edge:g},{self.edges[i + 1]:g})")
            else:
                labels.append(f">={edge:g}")
        return list(zip(labels, self.counts))


#: Figure 2's x ticks: 0.5, 1, 2 ... 512 microseconds.
FIGURE2_EDGES = [0.5 * 2**i for i in range(11)]


def fault_time_histogram(durations_us: Iterable[float]) -> Histogram:
    """Histogram of page-fault handling times with the paper's
    Figure 2 buckets."""
    histogram = Histogram(edges=list(FIGURE2_EDGES))
    histogram.add_all(durations_us)
    return histogram
