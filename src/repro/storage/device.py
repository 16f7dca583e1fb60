"""Queued block-device model.

A read request proceeds in two stages:

1. Acquire one of ``queue_depth`` slots and pay the access latency —
   ``random_latency_us`` for a discontiguous read, the much smaller
   ``sequential_latency_us`` when the request starts exactly where the
   previous issued request ended. The access latency is floored by the
   device's IOPS limit (``1e6 / iops`` microseconds per request).
2. Acquire the single shared bandwidth channel and pay
   ``bytes / bandwidth`` transfer time, which caps aggregate
   throughput at the spec bandwidth regardless of queue depth.

This reproduces the cost structure the paper measures: a synchronous
4 KiB major page fault costs ~the device access latency, while the
FaaSnap loader streaming a compact loading-set file runs at device
bandwidth. Contention between the two (guest faults queueing behind
loader reads) emerges from the slot/channel resources.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, List, Optional

from repro.sim import Environment, Event, Resource, SimulationError
from repro.storage.errors import DeviceError


@dataclass(frozen=True)
class DeviceSpec:
    """Static performance characteristics of a block device."""

    name: str
    #: Access latency of a discontiguous (seeking) read, microseconds.
    random_latency_us: float
    #: Access latency when continuing the previous read, microseconds.
    sequential_latency_us: float
    #: Sustained transfer bandwidth, bytes per microsecond (== MB/s).
    bandwidth_bytes_per_us: float
    #: Maximum request rate; floors per-request latency at 1e6/iops.
    iops: float
    #: Number of requests the device services concurrently.
    queue_depth: int = 16

    def __post_init__(self) -> None:
        if self.random_latency_us <= 0 or self.sequential_latency_us <= 0:
            raise ValueError("device latencies must be positive")
        if self.bandwidth_bytes_per_us <= 0:
            raise ValueError("device bandwidth must be positive")
        if self.iops <= 0:
            raise ValueError("device iops must be positive")
        if self.queue_depth < 1:
            raise ValueError("queue depth must be >= 1")

    @property
    def min_request_interval_us(self) -> float:
        """Smallest per-request access cost implied by the IOPS cap."""
        return 1e6 / self.iops


@dataclass(frozen=True)
class Degradation:
    """A multiplicative performance penalty applied to a device.

    Pushed and popped by the fault injector for the duration of a
    fault window. ``latency_factor`` scales per-request access
    latency, ``bandwidth_factor`` scales transfer bandwidth (0.1 = a
    10x throughput collapse), ``iops_factor`` scales the IOPS cap
    (0.5 = the per-request interval floor doubles), and ``error_rate``
    is the probability a serviced request fails with
    :class:`~repro.storage.errors.DeviceError` (drawn from the
    environment's seeded ``rng``).
    """

    latency_factor: float = 1.0
    bandwidth_factor: float = 1.0
    iops_factor: float = 1.0
    error_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.latency_factor <= 0 or self.bandwidth_factor <= 0:
            raise ValueError("degradation factors must be positive")
        if self.iops_factor <= 0:
            raise ValueError("iops_factor must be positive")
        if not 0.0 <= self.error_rate <= 1.0:
            raise ValueError("error_rate must be in [0, 1]")

    def combine(self, other: "Degradation") -> "Degradation":
        """Stack two overlapping windows: factors multiply, error
        rates combine as independent failure probabilities."""
        return Degradation(
            latency_factor=self.latency_factor * other.latency_factor,
            bandwidth_factor=self.bandwidth_factor * other.bandwidth_factor,
            iops_factor=self.iops_factor * other.iops_factor,
            error_rate=1.0 - (1.0 - self.error_rate) * (1.0 - other.error_rate),
        )


@dataclass
class DeviceStats:
    """Mutable counters accumulated over a simulation run."""

    requests: int = 0
    sequential_requests: int = 0
    bytes_read: int = 0
    busy_time_us: float = 0.0
    #: Total time requests spent waiting for a queue slot.
    queue_wait_us: float = 0.0
    #: Requests that failed with an injected I/O error.
    errors: int = 0
    per_request_sizes: list = field(default_factory=list)

    @property
    def random_requests(self) -> int:
        return self.requests - self.sequential_requests


class BlockDevice:
    """A simulated block device attached to a simulation environment."""

    def __init__(
        self,
        env: Environment,
        spec: DeviceSpec,
        metrics_prefix: Optional[str] = None,
    ):
        self.env = env
        self.spec = spec
        self.stats = DeviceStats()
        self._slots = Resource(env, capacity=spec.queue_depth)
        self._channel = Resource(env, capacity=1)
        self._next_sequential_offset: Optional[int] = None
        #: Active degradation windows (fault injection); ``degradation``
        #: is their combined view, ``None`` on the healthy hot path so
        #: an undegraded read costs one attribute check.
        self._degradations: List[Degradation] = []
        self.degradation: Optional[Degradation] = None
        self._register_metrics(metrics_prefix)

    def _register_metrics(self, metrics_prefix: Optional[str]) -> None:
        """Join the run's registry under ``metrics_prefix`` (default
        ``storage.<spec name>``, de-duplicated per registry).

        All pull-based: closures read ``self.stats`` at collection
        time, so :meth:`reset_stats` swapping the stats object stays
        cheap and the read hot path never touches an instrument.
        """
        registry = getattr(self.env, "metrics", None)
        if registry is None:
            self.metrics_prefix = None
            return
        prefix = registry.unique_prefix(
            metrics_prefix or f"storage.{self.spec.name}"
        )
        self.metrics_prefix = prefix
        registry.pull_counter(
            f"{prefix}.requests", lambda: self.stats.requests
        )
        registry.pull_counter(
            f"{prefix}.sequential_requests",
            lambda: self.stats.sequential_requests,
        )
        registry.pull_counter(
            f"{prefix}.bytes_read", lambda: self.stats.bytes_read
        )
        registry.pull_counter(
            f"{prefix}.busy_time_us", lambda: self.stats.busy_time_us
        )
        registry.pull_counter(
            f"{prefix}.queue_wait_us", lambda: self.stats.queue_wait_us
        )
        registry.pull_counter(
            f"{prefix}.errors", lambda: self.stats.errors
        )
        registry.gauge(
            f"{prefix}.degraded",
            lambda: 1 if self.degradation is not None else 0,
        )
        registry.gauge(
            f"{prefix}.queue_depth", lambda: self._slots.in_use
        )
        registry.gauge(
            f"{prefix}.channel_in_use", lambda: self._channel.in_use
        )
        registry.profiler.add_pull(
            f"{prefix}.service",
            lambda: (
                self.stats.busy_time_us - self.stats.queue_wait_us,
                self.stats.requests,
            ),
        )
        registry.profiler.add_pull(
            f"{prefix}.queueing",
            lambda: (self.stats.queue_wait_us, self.stats.requests),
        )

    def read(
        self, offset: int, nbytes: int
    ) -> Generator[Event, Any, float]:
        """Process helper: simulate reading ``nbytes`` at ``offset``.

        Usage inside a process: ``yield from device.read(off, n)``.
        Returns the total service time (including queueing) in
        microseconds.
        """
        if nbytes <= 0:
            raise SimulationError(f"read of {nbytes} bytes")
        if offset < 0:
            raise SimulationError(f"read at negative offset {offset}")
        start = self.env.now

        # The slot yield sits *inside* the try so that a process
        # interrupted while queueing (host crash, hedge cancellation)
        # releases its place in line: ``Resource.release`` of an
        # ungranted request removes it from the wait queue, and of a
        # granted one returns the slot.
        slot = self._slots.request()
        try:
            yield slot
            self.stats.queue_wait_us += self.env.now - start
            # Sequentiality is decided at issue time against the tail
            # of the previous issued request, like an on-device
            # readahead detector.
            sequential = offset == self._next_sequential_offset
            self._next_sequential_offset = offset + nbytes

            latency = (
                self.spec.sequential_latency_us
                if sequential
                else self.spec.random_latency_us
            )
            degradation = self.degradation
            if degradation is None:
                latency = max(latency, self.spec.min_request_interval_us)
                bandwidth = self.spec.bandwidth_bytes_per_us
            else:
                latency = max(
                    latency * degradation.latency_factor,
                    self.spec.min_request_interval_us
                    / degradation.iops_factor,
                )
                bandwidth = (
                    self.spec.bandwidth_bytes_per_us
                    * degradation.bandwidth_factor
                )
            yield self.env.timeout(latency)

            if (
                degradation is not None
                and degradation.error_rate > 0.0
                and self.env.rng.random() < degradation.error_rate
            ):
                # The access failed after seeking: the request burned
                # its slot time but transfers nothing.
                self.stats.errors += 1
                raise DeviceError(self.spec.name, offset, nbytes)

            channel = self._channel.request()
            try:
                yield channel
                transfer = nbytes / bandwidth
                yield self.env.timeout(transfer)
            finally:
                self._channel.release(channel)

            self.stats.requests += 1
            if sequential:
                self.stats.sequential_requests += 1
            self.stats.bytes_read += nbytes
            self.stats.per_request_sizes.append(nbytes)
        finally:
            self._slots.release(slot)

        elapsed = self.env.now - start
        self.stats.busy_time_us += elapsed
        return elapsed

    def can_read_immediately(self) -> bool:
        """True when a read issued right now would acquire a queue
        slot and the bandwidth channel without waiting. The fault
        fast path uses this (together with an event-heap check) to
        decide whether a read's service time is computable
        synchronously. A degraded device always says no: the batching
        fast path replicates the *healthy* read arithmetic, so fault
        windows must take the event path (which is where degradation
        factors and error injection live)."""
        return (
            self.degradation is None
            and self._slots.in_use < self._slots.capacity
            and self._channel.in_use == 0
        )

    def push_degradation(self, degradation: Degradation) -> None:
        """Apply a degradation window (fault injector entry point)."""
        self._degradations.append(degradation)
        self._recombine()

    def pop_degradation(self, degradation: Degradation) -> None:
        """Revoke a previously pushed degradation window."""
        self._degradations.remove(degradation)
        self._recombine()

    def _recombine(self) -> None:
        combined: Optional[Degradation] = None
        for degradation in self._degradations:
            combined = (
                degradation if combined is None
                else combined.combine(degradation)
            )
        self.degradation = combined

    def reset_stats(self) -> None:
        """Zero the counters (e.g. between record and test phases)."""
        self.stats = DeviceStats()

    def reset_readahead(self) -> None:
        """Forget the sequential-read detector's window.

        Dropping the page cache between measured runs is meant to make
        each run independent of history; the detector's remembered
        tail offset is the one remaining piece of cross-run device
        state, so the platform clears it alongside the cache. Without
        this, whether a run's first read counts as sequential would
        depend on whatever unrelated I/O happened to run before it.
        """
        self._next_sequential_offset = None

    def estimate_read_time(self, nbytes: int, sequential: bool = False) -> float:
        """Uncontended service-time estimate (used for sanity checks
        and tests; the simulation itself never uses this shortcut)."""
        latency = (
            self.spec.sequential_latency_us
            if sequential
            else self.spec.random_latency_us
        )
        latency = max(latency, self.spec.min_request_interval_us)
        return latency + nbytes / self.spec.bandwidth_bytes_per_us

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BlockDevice {self.spec.name}>"
