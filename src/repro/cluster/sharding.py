"""Sharded cluster execution: one run, many event heaps.

:class:`~repro.cluster.scheduler.ClusterSimulator` serves every host
from a single event heap, so a 64-host run is a single-core marathon.
This module shards that run across worker processes while keeping the
result *bit-identical* for any shard count — the same contract PR 1
proved for experiment cells (``--jobs``), pushed one level down into
a single cluster run.

Topology
--------

The unit of simulation is the **host**: each host gets its own
:class:`~repro.sim.engine.Environment` (clock, heap, rng, registry)
wrapped in a single-host :class:`_ShardHostSim`. A **shard** is a
batch of host sims owned by one worker process; the parent process
runs the **router**, which owns everything cross-host:

* placement (:class:`~repro.cluster.placement.CountingPlacement` over
  :class:`~repro.cluster.placement.StaticHostView` snapshots, health-
  filtered exactly like the single-heap armed path);
* the cluster-wide retry budget (each host holds one
  :meth:`~repro.faults.RetryBudget.partitioned` slice, pooled and
  redistributed at every barrier with
  :func:`~repro.faults.rebalance_tokens`);
* hedge dispatch (one cluster-wide
  :class:`~repro.faults.HedgeTracker`), retry failover, and final
  :class:`~repro.fleet.scheduler.InvocationOutcome` assembly;
* the shared-EBS tier's cross-host coupling, modelled as per-host
  replica volumes plus a barrier-exchanged *background demand*
  degradation (each window, a host's replica bandwidth is scaled by
  ``1 / (1 + foreign_bytes / (bandwidth * window))`` where
  ``foreign_bytes`` is what every *other* host read last window).

Synchronization protocol
------------------------

Virtual time is cut into fixed windows ``[k*W, (k+1)*W)``. Each
iteration the router (1) routes every arrival and pending redispatch
whose start time falls inside the window, (2) tells every shard to
deliver its dispatches and advance its hosts to the window end
(:meth:`~repro.sim.engine.Environment.advance_to`), (3) collects one
**digest** per host — completions, failure records, sheds, load,
health, idle-warm and snapshot sets, unspent budget tokens, shared-
device demand — and (4) computes the next window's **updates**
(rebalanced tokens, cluster-published snapshots, background demand).
Cross-host effects (failover retries, hedges, snapshot publication)
therefore only take effect at window boundaries; within a window
every host is provably independent, which is what makes parallel
execution safe.

Determinism contract
--------------------

``shards=1`` runs the identical protocol serially, so ``shards=N`` is
*pure execution parallelism*: the router's decisions are a function
of digests only, digests are a function of each host's own event
history, and each host's history is a function of (config, seed,
trace, its fault sub-plan). The golden-parity test pins
``latency_checksum_us``, the full outcome stream, and the merged
telemetry snapshot (:func:`~repro.metrics.exporters.merge_shard_snapshots`)
across shard counts.

Shared code
-----------

A host sim is a single-host :class:`~repro.cluster.scheduler.
ClusterSimulator`: it reuses the single-heap setup, serving-epoch
hooks, attempt body, inline unarmed serve, admission-shed check and
retry decision, and the router picks failover and hedge hosts with
the same :func:`~repro.cluster.placement.pick_failover` over barrier
views. Only the cross-host round differs, and with it these
divergences from the single-heap path (documented, deterministic):

* TTL evictions happen when a host next receives a dispatch, not at
  every cluster arrival;
* ``memory_samples_mb`` holds per-host samples (host order), not the
  cluster-wide sum at each arrival;
* on the shared tier every host records its own snapshot artefacts
  (replica volumes) instead of adopting host0's, and cross-host
  contention arrives as the background-demand factor above;
* hedges fire at the first window boundary where the primary attempt
  has been in flight longer than the threshold, and failover retries
  redispatch at ``max(window end, failure + backoff)``;
* causal-trace events: hosts emit attempt-level and host-level
  records from the shared serving code (source = host index, drained
  into each window digest's one ``events`` batch), the router emits
  routing decisions (source ``-1``) — so the sharded trace shows
  ``route``/``redispatch`` where the single-heap trace shows
  ``dispatch``/``failover``. Within the sharded family the merged
  document is byte-identical for every shard count.
"""

from __future__ import annotations

import dataclasses
import heapq
import multiprocessing
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.placement import (
    CountingPlacement,
    HealthFiltered,
    StaticHostView,
    make_placement,
    pick_failover,
)
from repro.cluster.scheduler import (
    ClusterConfig,
    ClusterReport,
    ClusterSimulator,
    TIER_SHARED_EBS,
    run_is_armed,
)
from repro.faults import (
    DeadlineExceeded,
    FaultPlan,
    HedgeTracker,
    RetryBudget,
    rebalance_tokens,
)
from repro.faults.durability import durability_stream
from repro.fleet.scheduler import (
    InvocationOutcome,
    ServedInvocation,
    StartKind,
)
from repro.fleet.workload import Arrival, ArrivalTrace
from repro.metrics.causal import CausalTracer, ROUTER_SRC, TraceContext
from repro.metrics.exporters import merge_shard_snapshots, registry_snapshot
from repro.metrics.stats import Histogram
from repro.metrics.telemetry import MetricsRegistry
from repro.sim import AllFailed
from repro.storage.device import Degradation
from repro.storage.presets import EBS_IO2

#: Barrier cadence: cross-host effects resolve every quarter second
#: of virtual time. Smaller windows tighten failover/hedge reaction
#: time at the cost of more barriers.
DEFAULT_WINDOW_US = 250_000.0

#: Per-host environment seed stride (a prime far above any realistic
#: seed), so host rng streams are decorrelated but a pure function of
#: (config.seed, host index) — never of shard packing.
_HOST_SEED_STRIDE = 1_000_003

#: Doubling buckets for the per-host serve-latency histogram
#: (``cluster.latency_us``): 1 ms .. ~17 min, merged across shards.
LATENCY_HISTOGRAM_EDGES = [0.0] + [1000.0 * 2**i for i in range(21)]

#: Safety horizon: a run that has not drained within this much
#: virtual time past its last arrival is stuck.
_SETTLE_HORIZON_US = 3_600_000_000.0


def partition_hosts(num_hosts: int, shards: int) -> List[List[int]]:
    """Contiguous host-index groups, one per shard, sizes differing by
    at most one. Pure function of the two counts — the protocol never
    depends on the grouping, but a stable one keeps worker logs
    readable."""
    if num_hosts < 1 or shards < 1:
        raise ValueError("num_hosts and shards must be >= 1")
    shards = min(shards, num_hosts)
    base, extra = divmod(num_hosts, shards)
    groups: List[List[int]] = []
    start = 0
    for s in range(shards):
        size = base + (1 if s < extra else 0)
        groups.append(list(range(start, start + size)))
        start += size
    return groups


def plan_for_host(
    plan: Optional[FaultPlan], host_id: str
) -> Optional[FaultPlan]:
    """The slice of a cluster fault plan one host must replay:
    cluster-scoped device faults (``*``/``shared``) apply everywhere,
    host-scoped faults only to their host. ``None`` stays ``None``
    (unarmed); an armed run with an empty slice gets an empty plan."""
    if plan is None:
        return None
    return FaultPlan(
        device_faults=tuple(
            f
            for f in plan.device_faults
            if f.scope in ("*", "shared") or f.scope == host_id
        ),
        host_crashes=tuple(
            c for c in plan.host_crashes if c.host == host_id
        ),
        corruptions=tuple(
            c for c in plan.corruptions if c.host == host_id
        ),
        fail_slows=tuple(
            s for s in plan.fail_slows if s.host == host_id
        ),
    )


# -- wire records ------------------------------------------------------
#
# Everything crossing the parent/worker boundary is a plain dataclass
# of scalars. All times are *serving-relative*: microseconds since the
# host's prep epoch ended (t=0 of the arrival trace).


@dataclass(frozen=True)
class _Dispatch:
    """Router → host: serve (one more round of) an invocation."""

    inv_id: int
    function: str
    #: When the host should begin (>= its current window start).
    start_us: float
    #: The original arrival time — latency/deadline base.
    arrival_us: float
    #: Rounds already consumed by earlier dispatches of this inv.
    attempt_base: int = 0
    #: Initial dispatch: counts the arrival, may be shed.
    is_initial: bool = True
    #: Hedge attempts never retry and never shed.
    is_hedge: bool = False


@dataclass(frozen=True)
class _Completion:
    """Host → router: one serve chain finished successfully."""

    inv_id: int
    host_index: int
    finish_us: float
    kind: StartKind
    #: Rounds consumed by the whole chain, ``attempt_base`` included.
    rounds: int
    #: Rounds this dispatch itself ran (> 1 only for local backoff
    #: retries, i.e. when failover is off).
    local_rounds: int
    #: Duration of the winning attempt (hedge-threshold input).
    attempt_latency_us: float
    is_hedge: bool


@dataclass(frozen=True)
class _Failure:
    """Host → router: one serve chain gave up (or wants failover)."""

    inv_id: int
    host_index: int
    fail_us: float
    rounds: int
    local_rounds: int
    #: The host already spent a budget token and drew a backoff; the
    #: router should redispatch on another host.
    wants_retry: bool
    backoff_us: float
    is_hedge: bool


@dataclass(frozen=True)
class _Shed:
    """Host → router: an initial dispatch was rejected at admission."""

    inv_id: int
    host_index: int
    time_us: float


class _ShardHostSim(ClusterSimulator):
    """A single-host cluster sim driven window-by-window.

    Reuses the parent class's setup (:meth:`_begin_run`), serving-
    epoch hooks, attempt body (:meth:`_attempt`), unarmed serve
    (:meth:`_serve`), shed check, retry decision and fault-injector
    surface; what changes is the driver: instead of iterating a
    trace, the host executes router dispatches and reports digests at
    window barriers.
    """

    def __init__(self, fleet, config: ClusterConfig, host_index: int):
        total = config.num_hosts
        sub = dataclasses.replace(
            config,
            num_hosts=1,
            seed=config.seed + _HOST_SEED_STRIDE * (host_index + 1),
        )
        super().__init__(fleet, sub)
        self.host_index = host_index
        self.total_hosts = total
        self._src = host_index

    # Hooks into the parent's setup -----------------------------------

    def _host_id(self, index: int) -> str:
        return f"host{self.host_index}"

    def _make_retry_budget(self, recovery) -> RetryBudget:
        return RetryBudget.partitioned(
            recovery.retry_budget_min,
            recovery.retry_budget_ratio,
            self.total_hosts,
        )

    # Window-driven lifecycle ------------------------------------------

    def begin(
        self,
        fault_plan: Optional[FaultPlan],
        armed: bool,
        causal: bool = False,
    ) -> Dict[str, Any]:
        """Run the prep epoch and arm fault machinery; returns the
        initial digest. ``causal`` traces the host's invocations too:
        its recorder (source = host index) then keeps every record,
        not only the durability stream; each digest drains it back
        to the router."""
        host_id = self._host_id(0)
        sub_plan = plan_for_host(fault_plan, host_id)
        if sub_plan is None and armed:
            sub_plan = FaultPlan.empty()
        env = self._begin_run(
            None, sub_plan, causal=CausalTracer() if causal else None
        )
        self.sampler = None
        self._latency_hist = self.registry.histogram(
            "cluster.latency_us", edges=LATENCY_HISTOGRAM_EDGES
        )
        prep = env.process(self._prepare(), name="shard-prep")
        env.run(until=prep)
        self._epoch = self._start_serving_epoch()
        self._out_completions: List[_Completion] = []
        self._out_failures: List[_Failure] = []
        self._out_sheds: List[_Shed] = []
        self._shared_bytes_seen = 0
        self._bg_degradation: Optional[Degradation] = None
        digest = self._digest(window_events=0)
        digest["prep_us"] = self._epoch
        return digest

    def apply_updates(self, updates: Dict[str, Any]) -> None:
        """Barrier inputs for the coming window: cluster-published
        snapshots, the rebalanced budget slice, and the shared tier's
        background-demand factor."""
        hs = self._hosts[0]
        published = updates.get("snapshots")
        if published:
            hs.snapshots.update(published)
        tokens = updates.get("budget_tokens")
        if tokens is not None and self._retry_budget is not None:
            self._retry_budget.tokens = tokens
        if self._shared_device is not None:
            if self._bg_degradation is not None:
                self._shared_device.pop_degradation(self._bg_degradation)
                self._bg_degradation = None
            factor = updates.get("background_demand")
            if factor is not None:
                self._bg_degradation = Degradation(
                    bandwidth_factor=factor
                )
                self._shared_device.push_degradation(self._bg_degradation)

    def submit(self, dispatch: _Dispatch) -> None:
        self.env.process(
            self._submission(dispatch),
            name=f"dispatch:{dispatch.function}",
        )

    def advance_window(self, until_us: float) -> Dict[str, Any]:
        """Run the host to the window barrier and digest what
        happened."""
        events = self.env.advance_to(self._epoch + until_us)
        return self._digest(window_events=events)

    def finalize(self) -> Dict[str, Any]:
        """End of run: per-host report pieces + telemetry snapshot."""
        self._stop_serving_epoch()
        report = self._finish_run()
        hs = self._hosts[0]
        snapshot = registry_snapshot(self.registry)
        snapshot["virtual_time_us"] = self.env.now
        return {
            "host_index": self.host_index,
            "host_id": hs.host.host_id,
            "stats": hs.stats,
            "served": list(report.served),
            "memory_samples_mb": list(report.memory_samples_mb),
            "evictions": report.evictions,
            "prep_us": report.prep_us,
            "snapshot": snapshot,
            "latency_histogram": self._latency_hist.histogram,
            "fault_summary": dict(report.fault_summary),
            "events": self._drain_events(),
        }

    def _drain_events(self):
        """The records emitted since the last digest (one batch for
        the causal document and the durability stream alike)."""
        return self._rec.drain() if self._rec is not None else ()

    # Internals --------------------------------------------------------

    def _digest(self, window_events: int) -> Dict[str, Any]:
        hs = self._hosts[0]
        completions = self._out_completions
        failures = self._out_failures
        sheds = self._out_sheds
        self._out_completions = []
        self._out_failures = []
        self._out_sheds = []
        shared_bytes = 0
        if self._shared_device is not None:
            total = self._shared_device.stats.bytes_read
            shared_bytes = max(0, total - self._shared_bytes_seen)
            self._shared_bytes_seen = total
        out: Dict[str, Any] = {
            "completions": completions,
            "failures": failures,
            "sheds": sheds,
            "load": hs.load,
            "healthy": hs.healthy,
            "crashed": hs.host.crashed,
            "idle_warm": tuple(hs.idle.idle_functions()),
            "snapshots": tuple(sorted(hs.snapshots)),
            "tokens": (
                self._retry_budget.tokens
                if self._retry_budget is not None
                else None
            ),
            "shared_bytes": shared_bytes,
            "window_events": window_events,
            "events": self._drain_events(),
        }
        if self.durability is not None:
            # Quarantine-aware warm view: the router must not route a
            # snapshot start at a host whose every replica is bad.
            out["readable"] = tuple(
                f
                for f in out["snapshots"]
                if self.durability.has_readable(hs.host.host_id, f)
            )
        return out

    def _submission(self, d: _Dispatch):
        env = self.env
        hs = self._hosts[0]
        at = self._epoch + d.start_us
        if env.now < at:
            yield env.wake_at(at)
        self._evict_expired(hs, env.now)
        hs.queued += 1
        self._report.memory_samples_mb.append(hs.memory_mb)
        ctx = None
        if self._causal is not None:
            ctx = TraceContext(self._rec, d.inv_id)
        self._emit(
            hs.host.host_id, "dispatch", ctx,
            hedge=d.is_hedge, function=d.function,
        )
        if self._armed:
            yield from self._serve_sharded(hs, d, ctx)
            return
        arrival = Arrival(time_us=d.arrival_us, function=d.function)
        served = yield from self._serve(hs, arrival, env.now, ctx)
        self._latency_hist.observe(served.latency_us)
        self._out_completions.append(
            _Completion(
                inv_id=d.inv_id,
                host_index=self.host_index,
                finish_us=served.time_us + served.latency_us,
                kind=served.kind,
                rounds=1,
                local_rounds=1,
                attempt_latency_us=served.latency_us,
                is_hedge=False,
            )
        )

    def _serve_sharded(self, hs, d: _Dispatch, ctx=None):
        """The armed serve chain for one dispatch: the parent class's
        round loop with its shared shed check and retry decision, but
        everything cross-host — failover, hedging, final outcomes — is
        handed back to the router as failure/completion records."""
        env = self.env
        recovery = self.config.recovery
        function = d.function

        if d.is_hedge:
            hs.stats.hedges += 1
        if d.is_initial and self._shed_on_arrival(hs, function, ctx):
            self._out_sheds.append(
                _Shed(d.inv_id, self.host_index, d.arrival_us)
            )
            return

        deadline_at = (
            self._epoch + d.arrival_us + recovery.deadline_us
            if recovery.deadline_us is not None
            else None
        )
        arrival = Arrival(time_us=d.arrival_us, function=function)
        failover = bool(recovery.failover and self.total_hosts > 1)
        rounds = d.attempt_base

        def fail(wants_retry: bool = False, backoff_us: float = 0.0):
            self._out_failures.append(
                _Failure(
                    d.inv_id,
                    self.host_index,
                    env.now - self._epoch,
                    rounds,
                    rounds - d.attempt_base,
                    wants_retry=wants_retry,
                    backoff_us=backoff_us,
                    is_hedge=d.is_hedge,
                )
            )

        pre_counted = True
        while True:
            rounds += 1
            proc = self._launch_attempt(hs, arrival, pre_counted, ctx, rounds)
            pre_counted = False
            start = env.now
            race = env.first_success([proc])
            waits = [race]
            deadline_evt = None
            if deadline_at is not None:
                deadline_evt = env.wake_at(max(deadline_at, env.now))
                waits.append(deadline_evt)
            try:
                yield env.any_of(waits)
            except AllFailed as exc:
                round_failure = exc
            else:
                round_failure = None

            if round_failure is None:
                if race.triggered and race.ok:
                    _, (kind, _) = race.value
                    self._latency_hist.observe(
                        env.now - (self._epoch + d.arrival_us)
                    )
                    self._out_completions.append(
                        _Completion(
                            inv_id=d.inv_id,
                            host_index=self.host_index,
                            finish_us=env.now - self._epoch,
                            kind=kind,
                            rounds=rounds,
                            local_rounds=rounds - d.attempt_base,
                            attempt_latency_us=env.now - start,
                            is_hedge=d.is_hedge,
                        )
                    )
                    return
                if deadline_evt is not None and deadline_evt.processed:
                    if proc.is_alive:
                        proc.interrupt(
                            DeadlineExceeded(function, recovery.deadline_us)
                        )
                    self._emit(
                        None, "deadline-exceeded", ctx,
                        deadline_us=recovery.deadline_us,
                    )
                    fail()
                    return
                continue  # pragma: no cover - no other wake source

            backoff = self._retry_backoff(
                round_failure,
                rounds,
                deadline_at,
                hs,
                ctx,
                retry_ok=not d.is_hedge,
                failover=failover,
                function=function,
            )
            if backoff is None:
                fail()
                return
            if failover:
                # Cross-host retry: the router picks the failover host
                # and redispatches after the backoff.
                fail(wants_retry=True, backoff_us=backoff)
                return
            if backoff > 0:
                yield env.timeout(backoff)


def _shard_worker_main(conn, fleet, config, host_indices, armed, plan, causal):
    """Worker process: serves one shard's host group through a
    :class:`_SerialBackend`, executing the router's ``begin``,
    ``window`` and ``finalize`` messages from the pipe until told to
    stop. Module-level (and all arguments picklable) so the ``spawn``
    start method works too."""
    try:
        backend = _SerialBackend(
            fleet, config, armed, plan, causal, host_indices
        )
        while True:
            cmd, *args = conn.recv()
            if cmd == "stop":
                conn.close()
                return
            conn.send(getattr(backend, cmd)(*args))
    except BaseException:
        try:
            conn.send({"__error__": traceback.format_exc()})
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass


class _SerialBackend:
    """``shards=1``: the identical protocol, executed in-process over
    every host (and, inside each ``shards>1`` worker, over that
    shard's host group). Every host still has its own environment and
    digests — the router cannot tell the backends apart, which is the
    determinism argument in one sentence."""

    def __init__(
        self, fleet, config, armed, plan, causal=False, host_indices=None
    ):
        if host_indices is None:
            host_indices = range(config.num_hosts)
        self._sims = [_ShardHostSim(fleet, config, i) for i in host_indices]
        self._armed = armed
        self._plan = plan
        self._causal = causal

    def begin(self):
        return {
            s.host_index: s.begin(self._plan, self._armed, self._causal)
            for s in self._sims
        }

    def window(self, until_us, updates, dispatches):
        out = {}
        for s in self._sims:
            s.apply_updates(updates.get(s.host_index, {}))
            for d in dispatches.get(s.host_index, ()):
                s.submit(d)
            out[s.host_index] = s.advance_window(until_us)
        return out

    def finalize(self):
        return {s.host_index: s.finalize() for s in self._sims}

    def close(self):
        pass


class _ProcessBackend:
    """``shards>1``: persistent worker processes over pipes, ``fork``
    preferred with a ``spawn`` fallback (same discipline as
    ``experiments.runner.parallel_map``)."""

    def __init__(self, fleet, config, armed, plan, groups, causal=False):
        ctx = None
        for method in ("fork", "spawn"):
            try:
                ctx = multiprocessing.get_context(method)
                break
            except ValueError:  # pragma: no cover - exotic platform
                continue
        if ctx is None:  # pragma: no cover - exotic platform
            raise RuntimeError("no usable multiprocessing start method")
        self._conns = []
        self._procs = []
        self._groups = groups
        for group in groups:
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_shard_worker_main,
                args=(child_conn, fleet, config, group, armed, plan, causal),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)

    def _collect(self):
        merged: Dict[int, Any] = {}
        for conn in self._conns:
            reply = conn.recv()
            if "__error__" in reply:
                self.close()
                raise RuntimeError(
                    "shard worker failed:\n" + reply["__error__"]
                )
            merged.update(reply)
        return merged

    def begin(self):
        for conn in self._conns:
            conn.send(("begin",))
        return self._collect()

    def window(self, until_us, updates, dispatches):
        for group, conn in zip(self._groups, self._conns):
            conn.send(
                (
                    "window",
                    until_us,
                    {i: updates[i] for i in group if i in updates},
                    {i: dispatches[i] for i in group if i in dispatches},
                )
            )
        return self._collect()

    def finalize(self):
        for conn in self._conns:
            conn.send(("finalize",))
        return self._collect()

    def close(self):
        for conn in self._conns:
            try:
                conn.send(("stop",))
                conn.close()
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()


@dataclass
class _InvState:
    """Router bookkeeping for one invocation."""

    function: str
    arrival_us: float
    #: Dispatches in flight (primary + hedge can overlap).
    outstanding: int = 0
    #: Attempt launches so far (the report's ``attempts`` field).
    attempts: int = 0
    done: bool = False
    hedged: bool = False
    #: Host and start of the live primary dispatch (hedge-fire input).
    primary_host: int = -1
    primary_start_us: float = 0.0
    #: Latest failover-requesting failure, held until every
    #: outstanding attempt of the inv has resolved.
    stashed_retry: Optional[_Failure] = None


class ShardedClusterSimulator:
    """Serve a cluster trace through the windowed router protocol.

    ``run`` returns a :class:`~repro.cluster.scheduler.ClusterReport`;
    afterwards ``merged_metrics`` holds the deterministic cross-shard
    telemetry merge and ``latency_histogram`` the
    :meth:`~repro.metrics.stats.Histogram.merge` of every host's
    serve-latency histogram.
    """

    def __init__(
        self,
        fleet,
        config: Optional[ClusterConfig] = None,
        shards: int = 1,
        window_us: float = DEFAULT_WINDOW_US,
    ):
        self.fleet = list(fleet)
        self.config = config or ClusterConfig()
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if window_us <= 0:
            raise ValueError("window_us must be positive")
        self.shards = min(shards, self.config.num_hosts)
        self.window_us = float(window_us)
        self.merged_metrics: Optional[Dict[str, Any]] = None
        self.latency_histogram: Optional[Histogram] = None
        self.windows_run = 0
        #: The run's durability event stream (see
        #: :func:`~repro.faults.durability.durability_stream`) —
        #: byte-identical across shard counts.
        self.durability_events: List[Dict[str, Any]] = []

    def run(
        self,
        trace: ArrivalTrace,
        fault_plan: Optional[FaultPlan] = None,
        causal=None,
    ) -> ClusterReport:
        """Serve ``trace``. ``causal`` is an optional
        :class:`~repro.metrics.causal.CausalTracer`: the router records
        its decisions as source ``-1`` and folds in every host's
        drained events, producing one merged document whose bytes are
        invariant to the shard count."""
        config = self.config
        #: Every record the hosts ship, merged for the causal document
        #: and the durability stream.
        self._events: List[Any] = []
        H = config.num_hosts
        recovery = config.recovery
        armed = run_is_armed(config, fault_plan)
        registry = MetricsRegistry()
        self.registry = registry
        inner = make_placement(config.placement)
        if armed:
            inner = HealthFiltered(inner)
        failover = inner
        placement = CountingPlacement(
            inner, registry, [f"host{i}" for i in range(H)]
        )
        ctr_windows = registry.counter("cluster.router.windows")
        ctr_redispatch = registry.counter("cluster.router.redispatches")
        tracker: Optional[HedgeTracker] = None
        if armed:
            ctr_failed = registry.counter("cluster.scheduler.failed")
            tracker = HedgeTracker(recovery.hedge)
            registry.pull_counter("hedge.fired", lambda: tracker.fired)
            registry.pull_counter("hedge.won", lambda: tracker.won)
            registry.pull_counter(
                "hedge.cancelled", lambda: tracker.cancelled
            )

        if self.shards == 1:
            backend = _SerialBackend(
                self.fleet, config, armed, fault_plan, causal is not None
            )
        else:
            backend = _ProcessBackend(
                self.fleet,
                config,
                armed,
                fault_plan,
                partition_hosts(H, self.shards),
                causal is not None,
            )
        try:
            return self._run_router(
                trace,
                backend,
                placement,
                failover,
                tracker,
                ctr_windows,
                ctr_redispatch,
                ctr_failed if armed else None,
                armed,
                causal,
            )
        finally:
            backend.close()

    # -- the router ----------------------------------------------------

    def _run_router(
        self,
        trace: ArrivalTrace,
        backend,
        placement,
        failover,
        tracker: Optional[HedgeTracker],
        ctr_windows,
        ctr_redispatch,
        ctr_failed,
        armed: bool,
        causal=None,
    ) -> ClusterReport:
        config = self.config
        H = config.num_hosts
        W = self.window_us
        shared = config.snapshot_tier == TIER_SHARED_EBS
        #: Shared-tier replica capacity per window, bytes.
        window_capacity = EBS_IO2.bandwidth_bytes_per_us * W
        crec = causal.recorder(ROUTER_SRC) if causal is not None else None

        begin = backend.begin()
        views = [StaticHostView(index=i) for i in range(H)]
        tokens = [0.0] * H
        shared_bytes = [0] * H
        published: set = set()
        for i in range(H):
            self._apply_digest(
                views[i], begin[i], tokens, shared_bytes, published, i
            )
        prep_us = max(begin[i]["prep_us"] for i in range(H))

        arrivals = trace.arrivals
        ai = 0
        seq = 0
        heap: List[Tuple[float, int, int, _Dispatch]] = []
        invs: Dict[int, _InvState] = {}
        next_inv = 0
        inflight_total = 0
        served_router: List[ServedInvocation] = []
        failed_by_host: Dict[int, int] = {}
        updates: Dict[int, Dict[str, Any]] = {}
        horizon = (arrivals[-1].time_us if arrivals else 0.0) + (
            _SETTLE_HORIZON_US
        )
        w = 0
        while ai < len(arrivals) or heap or inflight_total:
            if w * W > horizon:
                raise RuntimeError(
                    "sharded cluster run failed to drain within the "
                    f"settle horizon (window {w})"
                )
            # Fast-forward across fully idle stretches of the trace.
            if not inflight_total:
                next_time = min(
                    arrivals[ai].time_us if ai < len(arrivals) else (
                        float("inf")
                    ),
                    heap[0][0] if heap else float("inf"),
                )
                w = max(w, int(next_time // W))
            w_end = (w + 1) * W
            ctr_windows.value += 1
            self.windows_run += 1

            # 1. route everything starting inside this window, in
            # (start time, enqueue order).
            while ai < len(arrivals) and arrivals[ai].time_us < w_end:
                a = arrivals[ai]
                ai += 1
                inv_id = next_inv
                next_inv += 1
                invs[inv_id] = _InvState(
                    function=a.function, arrival_us=a.time_us
                )
                if causal is not None:
                    causal.register(inv_id, a.function, a.time_us)
                heapq.heappush(
                    heap,
                    (
                        a.time_us,
                        seq,
                        -1,  # host chosen at dispatch time
                        _Dispatch(
                            inv_id=inv_id,
                            function=a.function,
                            start_us=a.time_us,
                            arrival_us=a.time_us,
                        ),
                    ),
                )
                seq += 1
            dispatches: Dict[int, List[_Dispatch]] = {}
            while heap and heap[0][0] < w_end:
                _, _, host, d = heapq.heappop(heap)
                if host < 0:
                    host = placement.choose(views, d.function)
                if crec is not None:
                    crec.emit(
                        d.inv_id,
                        d.start_us,
                        "route",
                        host=f"host{host}",
                        hedge=d.is_hedge,
                        initial=d.is_initial,
                    )
                views[host].projected += 1
                meta = invs[d.inv_id]
                meta.outstanding += 1
                meta.attempts += 1
                inflight_total += 1
                if not d.is_hedge:
                    meta.primary_host = host
                    meta.primary_start_us = d.start_us
                dispatches.setdefault(host, []).append(d)

            # 2. barrier: deliver, advance every host to w_end, digest.
            digests = backend.window(w_end, updates, dispatches)
            events = []
            for i in range(H):
                digest = digests[i]
                self._apply_digest(
                    views[i], digest, tokens, shared_bytes, published, i
                )
                for j, c in enumerate(digest["completions"]):
                    events.append((c.finish_us, i, j, "done", c))
                for j, f in enumerate(digest["failures"]):
                    events.append((f.fail_us, i, j, "fail", f))
                for j, s in enumerate(digest["sheds"]):
                    events.append((s.time_us, i, j, "shed", s))
            events.sort(key=lambda e: (e[0], e[1], e[2], e[3]))

            # 3. resolve outcomes / schedule redispatches.
            for _, host_idx, _, etype, rec in events:
                inflight_total -= 1
                meta = invs[rec.inv_id]
                meta.outstanding -= 1
                if etype == "shed":
                    meta.done = True
                    served_router.append(
                        ServedInvocation(
                            time_us=meta.arrival_us,
                            function=meta.function,
                            kind=None,
                            latency_us=0.0,
                            host=f"host{host_idx}",
                            outcome=InvocationOutcome.SHED,
                            attempts=0,
                        )
                    )
                    continue
                if etype == "done":
                    meta.attempts += rec.local_rounds - 1
                    if meta.done:
                        # A hedge race already resolved; this is the
                        # loser completing late.
                        tracker.cancelled += 1
                        if crec is not None:
                            crec.emit(
                                rec.inv_id,
                                rec.finish_us,
                                "hedge-cancelled",
                                hedge=rec.is_hedge,
                                host=f"host{host_idx}",
                            )
                        continue
                    meta.done = True
                    if not armed:
                        # Unarmed entries are recorded host-side by
                        # the inline serve (``ClusterSimulator._serve``).
                        continue
                    tracker.record(rec.attempt_latency_us)
                    if rec.is_hedge:
                        tracker.won += 1
                        outcome = InvocationOutcome.HEDGE_WON
                    elif rec.rounds > 1:
                        outcome = InvocationOutcome.RETRIED
                    else:
                        outcome = InvocationOutcome.OK
                    if crec is not None:
                        crec.emit(
                            rec.inv_id,
                            rec.finish_us,
                            "outcome",
                            attempts=meta.attempts,
                            host=f"host{host_idx}",
                            kind=rec.kind.value,
                            latency_us=rec.finish_us - meta.arrival_us,
                            outcome=outcome.value,
                        )
                    served_router.append(
                        ServedInvocation(
                            time_us=meta.arrival_us,
                            function=meta.function,
                            kind=rec.kind,
                            latency_us=rec.finish_us - meta.arrival_us,
                            host=f"host{host_idx}",
                            outcome=outcome,
                            attempts=meta.attempts,
                        )
                    )
                    continue
                # etype == "fail"
                meta.attempts += rec.local_rounds - 1
                if meta.done:
                    continue
                if rec.wants_retry:
                    meta.stashed_retry = rec
                if meta.outstanding > 0:
                    continue  # a hedge twin is still running
                retry_rec = meta.stashed_retry
                meta.stashed_retry = None
                if retry_rec is not None:
                    pick = pick_failover(
                        views, failover, views[retry_rec.host_index],
                        meta.function,
                    )
                    target = (
                        retry_rec.host_index if pick is None else pick.index
                    )
                    start = max(
                        w_end,
                        retry_rec.fail_us + retry_rec.backoff_us,
                    )
                    ctr_redispatch.value += 1
                    if crec is not None:
                        crec.emit(
                            rec.inv_id,
                            start,
                            "redispatch",
                            backoff_us=retry_rec.backoff_us,
                            host=f"host{target}",
                            round=retry_rec.rounds,
                        )
                    heapq.heappush(
                        heap,
                        (
                            start,
                            seq,
                            target,
                            _Dispatch(
                                inv_id=rec.inv_id,
                                function=meta.function,
                                start_us=start,
                                arrival_us=meta.arrival_us,
                                attempt_base=retry_rec.rounds,
                                is_initial=False,
                            ),
                        ),
                    )
                    seq += 1
                    continue
                meta.done = True
                ctr_failed.inc()
                failed_by_host[host_idx] = (
                    failed_by_host.get(host_idx, 0) + 1
                )
                if crec is not None:
                    crec.emit(
                        rec.inv_id,
                        rec.fail_us,
                        "outcome",
                        attempts=meta.attempts,
                        host=f"host{host_idx}",
                        kind=None,
                        latency_us=rec.fail_us - meta.arrival_us,
                        outcome=InvocationOutcome.FAILED.value,
                    )
                served_router.append(
                    ServedInvocation(
                        time_us=meta.arrival_us,
                        function=meta.function,
                        kind=None,
                        latency_us=rec.fail_us - meta.arrival_us,
                        host=f"host{host_idx}",
                        outcome=InvocationOutcome.FAILED,
                        attempts=meta.attempts,
                    )
                )

            # 4. barrier-time hedge decisions for the next window.
            if (
                tracker is not None
                and config.recovery.hedge.enabled
                and H > 1
            ):
                threshold = tracker.threshold_us()
                if threshold is not None:
                    deadline = config.recovery.deadline_us
                    for inv_id in sorted(invs):
                        meta = invs[inv_id]
                        if (
                            meta.done
                            or meta.hedged
                            or meta.outstanding != 1
                            or meta.primary_host < 0
                            or meta.stashed_retry is not None
                        ):
                            continue
                        fire_at = meta.primary_start_us + threshold
                        if fire_at > w_end:
                            continue
                        if deadline is not None and (
                            w_end >= meta.arrival_us + deadline
                        ):
                            continue
                        pick = pick_failover(
                            views, failover, views[meta.primary_host],
                            meta.function,
                        )
                        if pick is None:
                            continue
                        target = pick.index
                        meta.hedged = True
                        tracker.fired += 1
                        if crec is not None:
                            crec.emit(
                                inv_id,
                                w_end,
                                "hedge",
                                host=f"host{target}",
                                threshold_us=threshold,
                            )
                        heapq.heappush(
                            heap,
                            (
                                w_end,
                                seq,
                                target,
                                _Dispatch(
                                    inv_id=inv_id,
                                    function=meta.function,
                                    start_us=w_end,
                                    arrival_us=meta.arrival_us,
                                    is_initial=False,
                                    is_hedge=True,
                                ),
                            ),
                        )
                        seq += 1

            # 5. compute next window's barrier updates.
            updates = {i: {} for i in range(H)}
            if armed:
                allocation = rebalance_tokens(tokens)
                for i in range(H):
                    tokens[i] = allocation[i]
                    updates[i]["budget_tokens"] = allocation[i]
            if shared:
                total_bytes = sum(shared_bytes)
                for i in range(H):
                    foreign = total_bytes - shared_bytes[i]
                    if foreign > 0:
                        updates[i]["background_demand"] = 1.0 / (
                            1.0 + foreign / window_capacity
                        )
                for i in range(H):
                    mine = set(views[i].snapshots)
                    missing = published - mine
                    if missing:
                        updates[i]["snapshots"] = tuple(sorted(missing))
            # Resolved invocations need no more router state.
            for inv_id in [
                i for i, m in invs.items() if m.done and not m.outstanding
            ]:
                del invs[inv_id]
            w += 1

        return self._assemble(
            backend, served_router, failed_by_host, prep_us, causal
        )

    def _apply_digest(
        self, view, digest, tokens, shared_bytes, published, index
    ) -> None:
        view.base_load = digest["load"]
        view.projected = 0
        view.idle_warm = frozenset(digest["idle_warm"])
        # With the durability plane on, placement sees only snapshots
        # with >= 1 readable replica; cluster-wide publication (below)
        # still tracks everything ever captured.
        view.snapshots = frozenset(
            digest.get("readable", digest["snapshots"])
        )
        view.healthy = digest["healthy"] and not digest["crashed"]
        view.crashed = digest["crashed"]
        if digest["tokens"] is not None:
            tokens[index] = digest["tokens"]
        shared_bytes[index] = digest["shared_bytes"]
        if self.config.snapshot_tier == TIER_SHARED_EBS:
            published.update(digest["snapshots"])
        self._events.extend(digest["events"])

    def _assemble(
        self, backend, served_router, failed_by_host, prep_us, causal
    ) -> ClusterReport:
        config = self.config
        finals = backend.finalize()
        report = ClusterReport(
            placement=config.placement,
            snapshot_tier=config.snapshot_tier,
        )
        report.prep_us = prep_us
        snapshots = []
        histograms = []
        for i in range(config.num_hosts):
            fin = finals[i]
            stats = fin["stats"]
            stats.failures += failed_by_host.get(i, 0)
            report.host_stats[fin["host_id"]] = stats
            report.served.extend(fin["served"])
            report.memory_samples_mb.extend(fin["memory_samples_mb"])
            report.evictions += fin["evictions"]
            snapshots.append(fin["snapshot"])
            histograms.append(fin["latency_histogram"])
            for key, value in fin.get("fault_summary", {}).items():
                if isinstance(value, (int, float)):
                    report.fault_summary[key] = (
                        report.fault_summary.get(key, 0) + value
                    )
            self._events.extend(fin["events"])
        if causal is not None:
            causal.extend(self._events)
        self.durability_events = durability_stream(self._events)
        report.served.extend(served_router)
        report.served.sort(key=lambda s: (s.time_us, s.function))
        router_snapshot = registry_snapshot(self.registry)
        router_snapshot["virtual_time_us"] = 0.0
        self.merged_metrics = merge_shard_snapshots(
            snapshots + [router_snapshot]
        )
        merged_hist = histograms[0]
        for hist in histograms[1:]:
            merged_hist = merged_hist.merge(hist)
        self.latency_histogram = merged_hist
        return report
