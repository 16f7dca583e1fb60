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
from typing import Any, Generator, List, Optional, Sequence, Tuple

from repro.sim import Environment, Event, Resource, SimulationError
from repro.storage.errors import DeviceError

#: A priced run of reads (:meth:`BlockDevice.quote`): the instant the
#: last one completes, ``(nbytes, sequential, elapsed)`` per read, and
#: the sequential-detector cursor they leave behind.
ReadQuote = Tuple[float, List[Tuple[int, bool, float]], Optional[int]]


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
        # The healthy device's per-request costs, from the frozen spec:
        # the access latencies floored by the IOPS cap, and the
        # bandwidth (:meth:`_service_times`, :meth:`quote`).
        floor = spec.min_request_interval_us
        self._sequential_us = max(spec.sequential_latency_us, floor)
        self._random_us = max(spec.random_latency_us, floor)
        self._bandwidth = spec.bandwidth_bytes_per_us
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
            degradation = self.degradation
            latency, transfer = self._service_times(
                sequential, nbytes, degradation
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
                yield self.env.timeout(transfer)
            finally:
                self._channel.release(channel)
        finally:
            self._slots.release(slot)

        elapsed = self.env.now - start
        self._account(((nbytes, sequential, elapsed),))
        return elapsed

    def _service_times(
        self, sequential: bool, nbytes: int, degradation: Optional[Degradation]
    ) -> Tuple[float, float]:
        """Access latency and transfer time of one request issued
        under ``degradation`` (``None``: the healthy device)."""
        if degradation is None:
            return (
                self._sequential_us if sequential else self._random_us,
                nbytes / self._bandwidth,
            )
        spec = self.spec
        latency = (
            spec.sequential_latency_us
            if sequential
            else spec.random_latency_us
        )
        return (
            max(
                latency * degradation.latency_factor,
                spec.min_request_interval_us / degradation.iops_factor,
            ),
            nbytes / (spec.bandwidth_bytes_per_us * degradation.bandwidth_factor),
        )

    def _account(self, reads: Sequence[Tuple[int, bool, float]]) -> None:
        """Count completed requests, ``(nbytes, sequential, elapsed)``
        each, in order."""
        stats = self.stats
        sizes = stats.per_request_sizes
        for nbytes, sequential, elapsed in reads:
            stats.requests += 1
            if sequential:
                stats.sequential_requests += 1
            stats.bytes_read += nbytes
            sizes.append(nbytes)
            stats.busy_time_us += elapsed

    def can_read_immediately(self) -> bool:
        """True when a read issued right now would acquire a queue
        slot and the bandwidth channel without waiting, on a healthy
        device: then :meth:`quote` prices it exactly. A degraded
        device always says no, so fault windows run :meth:`read`,
        which applies degradation factors and error injection."""
        return (
            self.degradation is None
            and self._slots.in_use < self._slots.capacity
            and self._channel.in_use == 0
        )

    def quote(
        self, extents: Sequence[Tuple[int, int]], start: float
    ) -> ReadQuote:
        """Price ``(offset, nbytes)`` reads issued back to back from
        ``start`` on a device that :meth:`can_read_immediately`, with
        nothing else reading meanwhile. Mutates nothing: the quote
        lands, float for float, on the instant :meth:`read` would
        reach — the healthy costs of :meth:`_service_times`, each leg
        added as its own timeout — and :meth:`settle` then applies the
        reads' effects."""
        cursor = self._next_sequential_offset
        sequential_us = self._sequential_us
        random_us = self._random_us
        bandwidth = self._bandwidth
        end = start
        reads = []
        for offset, nbytes in extents:
            sequential = offset == cursor
            cursor = offset + nbytes
            begin = end
            end = end + (sequential_us if sequential else random_us)
            end = end + nbytes / bandwidth
            reads.append((nbytes, sequential, end - begin))
        return end, reads, cursor

    def settle(self, quote: ReadQuote) -> None:
        """Apply a :meth:`quote`: the statistics and the
        sequential-detector cursor its reads leave behind."""
        _, reads, cursor = quote
        self._account(reads)
        self._next_sequential_offset = cursor

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
