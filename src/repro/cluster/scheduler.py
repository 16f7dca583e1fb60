"""Multi-host cluster serving: the one serving loop.

:class:`ClusterSimulator` serves an arrival trace across ``N``
simulated :class:`~repro.core.host.Host` machines sharing one virtual
clock, under paper §7.1's serving hierarchy: warm reuse, snapshot
restore, cold boot, keep-alive TTL and a per-host memory budget.

It runs at two fidelities behind the same placement, keep-alive pool,
eviction, admission and report code:

* **page level** (the default): every start runs the *actual
  page-level simulation* — a snapshot start runs the full restore
  (loader reads, guest faults, device queueing) on its host's own
  block device and page cache;
* **cost table** (``costs=``): every start is charged its measured
  :class:`~repro.fleet.costs.FunctionCosts` entry on the clock, with
  no record phases and no artefacts — cheap enough for long fleet
  traces, blind to contention.

At page level, consequences the cost table cannot express become
emergent:

* concurrent restores on one host queue on its device (Fig. 10's
  bursty-parallel effect), so 8 simultaneous starts are each slower
  than an uncontended one;
* with ``cold_cache_between_runs=False``, back-to-back restores of
  the same function hit still-resident page-cache pages and speed up;
* the shared-storage tier funnels every host's restores through one
  remote device (Fig. 11's scenario), while the local-NVMe tier gives
  each host its own.

In the uncontended limit (one host, arrivals spaced apart,
``cold_cache_between_runs=True``) the two fidelities agree, because
the cost model measures exactly this situation: a regression test
serves one trace both ways and pins identical start kinds and
latencies within 1%.

Timeline: the record phases that create each function's snapshot
artefacts run in a *prep* epoch before the trace starts (the trace's
``t=0`` is the end of prep), mirroring how the cost table is measured
outside the replayed trace; a table run has an empty prep epoch.
Whether the *scheduler* may use a snapshot still follows fleet
semantics — a function's first completed invocation leaves its
snapshot behind — unless ``assume_snapshots_exist`` pre-populates
them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Generator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.cluster.placement import (
    CountingPlacement,
    HealthFiltered,
    HostView,
    HotSwappablePlacement,
    PlacementPolicy,
    make_placement,
    pick_failover,
)
from repro.faults import (
    DISABLED_DURABILITY,
    DISABLED_RECOVERY,
    DeadlineExceeded,
    DeviceError,
    DurabilityManager,
    DurabilityPolicy,
    FaultInjector,
    FaultPlan,
    HealthMonitor,
    HedgeTracker,
    HostCrashed,
    RecoveryPolicy,
    RetryBudget,
    SnapshotCorrupted,
)
from repro.faults.durability import (
    EVENT_PREFIX,
    VERIFY_CORRUPT,
    VERIFY_SILENT,
    durability_stream,
)
from repro.faults.errors import FaultError
from repro.metrics.causal import CausalRecorder, ROUTER_SRC, TraceContext
from repro.metrics.flight import CLUSTER_RING
from repro.metrics.telemetry import Sampler
from repro.metrics.tracing import phase_spans
from repro.core.host import Host
from repro.core.policies import Policy
from repro.core.restore import PlatformConfig, RecordArtifacts
from repro.fleet.scheduler import (
    FleetReport,
    IdlePool,
    InvocationOutcome,
    PooledVm,
    ServedInvocation,
    StartKind,
)
from repro.fleet.workload import (
    US_PER_MINUTE,
    Arrival,
    ArrivalTrace,
    FleetFunction,
)
from repro.sim import AllFailed, Environment, Event, Interrupt, Resource
from repro.storage.device import BlockDevice
from repro.storage.filestore import PAGE_SIZE, FileStore
from repro.storage.presets import EBS_IO2
from repro.workloads.base import INPUT_A, InputSpec, WorkloadProfile
from repro.workloads.registry import get_profile

if TYPE_CHECKING:  # the fleet package imports this module at run time
    from repro.fleet.costs import FunctionCosts

#: Snapshot-store tiers: every host restores from its own NVMe, or
#: all hosts share one remote EBS-like volume (paper §6.5 / Fig. 11).
TIER_LOCAL_NVME = "local-nvme"
TIER_SHARED_EBS = "shared-ebs"
SNAPSHOT_TIERS = (TIER_LOCAL_NVME, TIER_SHARED_EBS)

#: The input every serving invocation runs by default, and the one
#: :class:`~repro.fleet.costs.CostModel` measures with, so the
#: uncontended page-level cluster reproduces the cost table.
DEFAULT_TEST_INPUT = InputSpec(content_id=3, size_ratio=1.0)

#: Why a cost-table run refuses the robust path and durability.
_TABLE_UNARMED = (
    "a cost-table run cannot arm faults, recovery or durability: the "
    "table holds one restore policy and no snapshot files"
)

#: Record kinds that snapshot the flight rings into a postmortem
#: (reason) right after landing in their ring.
_POSTMORTEM_KINDS = {
    "fault.crash": "host-crash",
    "durability.quarantine": "replica-quarantined",
}


@dataclass(frozen=True)
class ClusterConfig:
    """Cluster topology and scheduling policy knobs."""

    #: Number of simulated hosts sharing the virtual clock.
    num_hosts: int = 1
    #: Placement policy registry name (see
    #: :data:`repro.cluster.placement.PLACEMENT_NAMES`).
    placement: str = "round-robin"
    #: Restore policy used for snapshot starts.
    restore_policy: Policy = Policy.FAASNAP
    #: Keep a finished VM warm for this long (§2.1).
    keep_alive_ttl_us: float = 15 * US_PER_MINUTE
    #: Memory available for VMs on EACH host, MB.
    memory_budget_mb: float = 16_384.0
    #: Disable to model a platform with no snapshot tier.
    snapshots_enabled: bool = True
    #: Where snapshot files live: per-host NVMe or one shared volume.
    snapshot_tier: str = TIER_LOCAL_NVME
    #: Admission limit: invocations allowed to run concurrently on
    #: one host (None = unlimited); excess arrivals queue FIFO.
    max_concurrent_per_host: Optional[int] = None
    #: Evict a function's snapshot pages from the host page cache
    #: before an uncontended restore — the paper's between-tests
    #: methodology (§6.1), and what the cost table assumes. Disable to
    #: let back-to-back restores reuse still-resident pages.
    cold_cache_between_runs: bool = True
    #: Treat every function's snapshot as already captured, instead
    #: of requiring a first completed invocation (fleet semantics).
    assume_snapshots_exist: bool = False
    #: Inputs for the serving invocations / the prep record phases.
    test_input: InputSpec = DEFAULT_TEST_INPUT
    record_input: InputSpec = INPUT_A
    #: Per-host platform tunables (device spec, batching, CPU slots).
    platform: PlatformConfig = PlatformConfig()
    #: Self-healing knobs (retries, hedging, health, shedding,
    #: deadlines). The default disables everything: each invocation
    #: is then one inline attempt.
    recovery: RecoveryPolicy = DISABLED_RECOVERY
    #: Run seed: the environment's single randomness stream (fault
    #: error draws, backoff jitter) derives from it.
    seed: int = 0
    #: Snapshot durability plane (per-chunk checksums, replicas,
    #: verified restores, scrubbing). Disabled by default, which
    #: keeps the run bit-identical to pre-durability behaviour;
    #: enabling it routes serving through the robust path.
    durability: DurabilityPolicy = DISABLED_DURABILITY

    def __post_init__(self) -> None:
        if self.num_hosts < 1:
            raise ValueError("need at least one host")
        if self.snapshot_tier not in SNAPSHOT_TIERS:
            raise ValueError(
                f"unknown snapshot tier {self.snapshot_tier!r}; "
                f"known: {', '.join(SNAPSHOT_TIERS)}"
            )
        if (
            self.max_concurrent_per_host is not None
            and self.max_concurrent_per_host < 1
        ):
            raise ValueError("max_concurrent_per_host must be >= 1")


def run_is_armed(
    config: ClusterConfig, fault_plan: Optional[FaultPlan]
) -> bool:
    """Whether a run serves through the robust path (attempt processes
    that can crash, retry and hedge). An empty plan still arms it (you
    asked for fault machinery; you get its code path, which must then
    be behaviour-identical). The durability plane also arms it:
    verified restores and replica failover live on that path."""
    return (
        fault_plan is not None
        or bool(config.recovery.armed_features)
        or config.durability.enabled
    )


@dataclass
class HostStats:
    """Per-host accounting of one cluster run."""

    host: str
    invocations: int = 0
    warm_starts: int = 0
    snapshot_starts: int = 0
    cold_starts: int = 0
    evictions: int = 0
    #: Time arrivals spent waiting for an admission slot, microseconds.
    admission_wait_us: float = 0.0
    #: Snapshot-device counters over the serving epoch. On the
    #: shared-storage tier every host reports the shared device, so
    #: these repeat the cluster-wide totals.
    device_requests: int = 0
    device_bytes_read: int = 0
    device_queue_wait_us: float = 0.0
    #: Robustness accounting (all zero on a fault-free run).
    failures: int = 0
    shed: int = 0
    retries: int = 0
    hedges: int = 0
    degraded_starts: int = 0
    snapshot_corruptions: int = 0
    #: Keep-alive VMs lost to host crashes (not TTL/memory evictions).
    crash_vm_losses: int = 0


@dataclass
class ClusterReport(FleetReport):
    """A :class:`FleetReport` plus per-host attribution."""

    host_stats: Dict[str, HostStats] = field(default_factory=dict)
    #: Virtual time the prep epoch (record phases) took.
    prep_us: float = 0.0
    placement: str = ""
    snapshot_tier: str = TIER_LOCAL_NVME
    #: Injector + durability counters (empty on an unarmed run).
    fault_summary: Dict[str, int] = field(default_factory=dict)

    def count_on(self, host: str) -> int:
        return sum(1 for s in self.served if s.host == host)


class _HostState(HostView):
    """One host plus the scheduler's bookkeeping about it."""

    def __init__(self, index: int, host: Host, config: ClusterConfig):
        self.index = index
        self.host = host
        self.idle = IdlePool()
        self.active = 0
        self.queued = 0
        self.memory_mb = 0.0
        self.admission: Optional[Resource] = (
            Resource(host.env, config.max_concurrent_per_host)
            if config.max_concurrent_per_host is not None
            else None
        )
        #: Functions whose snapshot the scheduler may restore here
        #: (shared-storage hosts alias one cluster-wide set).
        self.snapshots: Set[str] = set()
        #: Learned warm RSS per function, MB.
        self.known_memory: Dict[str, float] = {}
        #: Snapshot restores in flight, per function — guards the
        #: cold-cache eviction so one restore never evicts pages a
        #: concurrent restore of the same function is loading.
        self.disk_active: Dict[str, int] = {}
        #: Load-once loader gates, refcounted per snapshot so only
        #: *overlapping* restores share one (a later restore must
        #: re-run the loader; the pages may have been evicted).
        self.gates: Dict[str, List[Any]] = {}
        self.stats = HostStats(host=host.host_id)
        #: Health plane (read by :class:`HealthFiltered` placement).
        self.healthy = True
        #: Operator-drained: out of rotation by command, not by
        #: failure — the health monitor must not reintegrate it.
        self.drained = False
        #: Recent attempt-failure timestamps (health monitor input).
        self.error_times: List[float] = []
        #: Last instant the host looked bad (monitor bookkeeping).
        self.last_bad_us = 0.0
        #: Live attempt processes, interrupted en masse on crash.
        #: A dict used as an ordered set: crash-time interrupts must
        #: run in launch order, not object-id order, or the event
        #: schedule (and thus every jittered backoff draw) would vary
        #: between identically-seeded runs.
        self.attempt_procs: Dict[Any, None] = {}

    # -- HostView ------------------------------------------------------

    @property
    def load(self) -> int:
        return self.active + self.queued

    def has_idle_warm(self, function: str) -> bool:
        return self.idle.has_idle(function)

    def has_snapshot_for(self, function: str) -> bool:
        return function in self.snapshots

    @property
    def crashed(self) -> bool:
        return self.host.crashed

    # -- loader gates --------------------------------------------------

    def acquire_gate(self, artifacts: RecordArtifacts) -> set:
        key = artifacts.warm_snapshot.memory_file.name
        entry = self.gates.get(key)
        if entry is None:
            entry = self.gates[key] = [set(), 0]
        entry[1] += 1
        return entry[0]

    def release_gate(self, artifacts: RecordArtifacts) -> None:
        key = artifacts.warm_snapshot.memory_file.name
        entry = self.gates[key]
        entry[1] -= 1
        if entry[1] == 0:
            del self.gates[key]


class ClusterSimulator:
    """Serves a fleet trace on N simulated hosts, page by page or
    from a cost table (see the module docstring)."""

    #: Origin stamp of this scheduler's event records.
    _src = ROUTER_SRC

    def __init__(
        self,
        fleet: Sequence[FleetFunction],
        config: Optional[ClusterConfig] = None,
        costs: Optional[Mapping[str, FunctionCosts]] = None,
    ):
        """``costs`` (keyed by fleet function name) selects the
        cost-table backend: each start is charged its table entry
        instead of running the page-level restore."""
        self.fleet = list(fleet)
        names = [f.name for f in self.fleet]
        if len(set(names)) != len(names):
            raise ValueError("fleet function names must be unique")
        self.config = config or ClusterConfig()
        self._costs: Optional[Dict[str, FunctionCosts]] = None
        if costs is not None:
            missing = [name for name in names if name not in costs]
            if missing:
                raise ValueError(
                    f"cost table has no entry for {', '.join(missing)}"
                )
            self._costs = dict(costs)
        #: Each fleet function gets its own clone of its Table 2
        #: profile, so distinct functions have distinct snapshot files
        #: even when they share a behaviour profile.
        self._profiles: Dict[str, WorkloadProfile] = {
            f.name: dataclasses.replace(
                get_profile(f.profile_name), name=f.name
            )
            for f in self.fleet
        }

    # -- public entry points -------------------------------------------

    def run(
        self,
        trace: ArrivalTrace,
        tracer=None,
        sampler_interval_us: Optional[float] = None,
        fault_plan: Optional[FaultPlan] = None,
        causal=None,
        slo=None,
        flight=None,
    ) -> ClusterReport:
        """Serve every arrival; fresh hosts and a fresh clock per
        call, so repeated runs are bit-identical.

        ``tracer`` (a :class:`repro.metrics.tracing.Tracer`) collects
        a span tree per served invocation, each span tagged with the
        id of the host that ran it. ``sampler_interval_us`` turns on a
        virtual-time gauge sampler at that cadence; its time series is
        available as ``self.sampler`` after the run, and sampling does
        not change any simulated result (the perf harness's
        perturbation guard pins this).

        ``fault_plan`` replays a :class:`~repro.faults.FaultPlan`
        against the run, with fault times relative to the end of the
        prep epoch. Passing a plan (even an empty one) or enabling
        any :class:`~repro.faults.RecoveryPolicy` feature routes
        serving through the robust path, which runs each attempt as
        its own process inside a retry/hedge round. An unarmed run
        runs the same attempt body inline, so with an empty plan and
        idle features both produce the same invocation outcomes,
        latencies and causal event kinds (the perf harness gates the
        latency parity).

        The observability plane rides along the same way: ``causal``
        (a :class:`~repro.metrics.causal.CausalTracer`), ``slo`` (a
        :class:`~repro.metrics.slo.SloMonitor`) and ``flight`` (a
        :class:`~repro.metrics.flight.FlightRecorder`) are pure
        recorders — with all three attached the run's latency
        checksum is bit-identical to an instrument-free run (the perf
        harness's observability guard pins this).

        Since the service refactor this is a thin wrapper: the batch
        run is one canned command stream (inject everything, then
        drain) replayed through the :class:`~repro.service.core.
        ClusterService` serving core, bit-identical to the historical
        inline driver loop (the perf harness's cluster checksums gate
        the equivalence).
        """
        from repro.service.core import ClusterService

        service = ClusterService(
            self,
            tracer=tracer,
            sampler_interval_us=sampler_interval_us,
            fault_plan=fault_plan,
            causal=causal,
            slo=slo,
            flight=flight,
        )
        return service.run_batch(trace)

    def _host_id(self, index: int) -> str:
        """Global name of host ``index``. Sharded execution overrides
        this so each single-host shard sim keeps its cluster-wide
        name."""
        return f"host{index}"

    def _make_retry_budget(self, recovery: RecoveryPolicy) -> RetryBudget:
        """The run's retry budget. Sharded execution overrides this to
        hand each host one partition of the cluster-wide bucket."""
        return RetryBudget(
            recovery.retry_budget_min, recovery.retry_budget_ratio
        )

    def _begin_run(
        self, tracer, fault_plan: Optional[FaultPlan], causal=None, slo=None,
        flight=None,
    ) -> Environment:
        """Set up everything a run needs up to (but excluding) the
        driver process: environment, report, placement, counters,
        fault machinery, hosts, health monitor, and the observability
        sinks ``causal``/``slo``/``flight`` (see :meth:`run`). Split
        out of ``run`` so the sharded execution path can reuse it
        verbatim for its per-host sims."""
        if self._costs is not None and run_is_armed(self.config, fault_plan):
            raise ValueError(_TABLE_UNARMED)
        env = Environment(seed=self.config.seed)
        self.env = env
        self.registry = env.metrics
        recovery = self.config.recovery
        # Observability plane: pure recording on the side of the heap,
        # so attached sinks leave the event schedule untouched. The
        # recorder keeps the records of the causal document, or else
        # those of the durability stream.
        self._causal = causal
        self._slo = slo
        self._flight = flight
        self._rec: Optional[CausalRecorder] = None
        if causal is not None:
            self._rec = causal.recorder(self._src)
        elif self.config.durability.enabled:
            self._rec = CausalRecorder(self._src)
        self._obs_epoch_us = 0.0
        self._inv_seq = 0
        self._armed = run_is_armed(self.config, fault_plan)
        self._report = ClusterReport(
            placement=self.config.placement,
            snapshot_tier=self.config.snapshot_tier,
        )
        # Placement chain, innermost out: the configured policy, a
        # hot-swap shim (the live service's ``swap_placement``), a
        # health filter, and telemetry counting. The health filter is
        # always present — it delegates untouched while every host is
        # healthy, so the unarmed batch path keeps its exact event
        # schedule, and live drain/crash state works even on runs that
        # never armed the fault machinery.
        self._hot_placement = HotSwappablePlacement(
            make_placement(self.config.placement)
        )
        inner: PlacementPolicy = HealthFiltered(self._hot_placement)
        self._failover_placement = inner
        self._placement: PlacementPolicy = CountingPlacement(
            inner,
            self.registry,
            [self._host_id(i) for i in range(self.config.num_hosts)],
        )
        counter = self.registry.counter
        self._ctr_invocations = counter("cluster.scheduler.invocations")
        self._ctr_warm = counter("cluster.scheduler.warm_starts")
        self._ctr_snapshot = counter("cluster.scheduler.snapshot_starts")
        self._ctr_cold = counter("cluster.scheduler.cold_starts")
        self._ctr_evictions = counter("cluster.scheduler.evictions")
        self.injector: Optional[FaultInjector] = None
        self.monitor: Optional[HealthMonitor] = None
        self.durability: Optional[DurabilityManager] = None
        self._retry_budget: Optional[RetryBudget] = None
        self._hedge_tracker: Optional[HedgeTracker] = None
        self._checksum_cache: Dict[Any, Any] = {}
        self._robust_ready = False
        if self._armed:
            self._install_robust_machinery()
            self.injector = FaultInjector(env, fault_plan, observer=self._emit)
        self._build_hosts(env, tracer)
        self._host_by_id = {hs.host.host_id: hs for hs in self._hosts}
        if self.config.durability.enabled:
            self.durability = DurabilityManager(
                env,
                self.config.durability,
                checksum_fn=self._snapshot_checksums,
                budget_fn=lambda: self._retry_budget,
                observer=self._emit,
            )
            if self.injector is not None:
                self.injector.durability = self.durability
        if self._armed and recovery.health.enabled:
            self.monitor = HealthMonitor(
                env,
                recovery.health,
                self._hosts,
                on_drain=lambda hs: self._emit(
                    hs.host.host_id, "health.drain"
                ),
                on_reintegrate=lambda hs: self._emit(
                    hs.host.host_id, "health.reintegrate"
                ),
            )
        return env

    def _install_robust_machinery(self) -> None:
        """Instruments and policy objects the robust serving path
        needs (retry budget, hedge tracker, failure counters). Called
        at ``_begin_run`` for armed runs, or lazily the first time a
        live ``arm`` command upgrades an unarmed run. Idempotent —
        re-arming keeps the run's budget and counters."""
        if self._robust_ready:
            return
        self._robust_ready = True
        recovery = self.config.recovery
        counter = self.registry.counter
        self._retry_budget = self._make_retry_budget(recovery)
        self._hedge_tracker = HedgeTracker(recovery.hedge)
        self._ctr_failed = counter("cluster.scheduler.failed")
        self._ctr_shed = counter("cluster.scheduler.shed")
        self._ctr_retries = counter("retry.attempts")
        self._ctr_degraded = counter("cluster.scheduler.degraded_starts")
        self._ctr_corrupt = counter(
            "cluster.scheduler.snapshot_corruptions"
        )
        budget = self._retry_budget
        self.registry.pull_counter("retry.spent", lambda: budget.spent)
        self.registry.pull_counter("retry.denied", lambda: budget.denied)
        tracker = self._hedge_tracker
        self.registry.pull_counter("hedge.fired", lambda: tracker.fired)
        self.registry.pull_counter("hedge.won", lambda: tracker.won)
        self.registry.pull_counter(
            "hedge.cancelled", lambda: tracker.cancelled
        )

    def _finish_run(self) -> ClusterReport:
        """Fold device stats into the report and canonicalise its
        order; the tail end of ``run``, shared with sharded
        execution's per-host sims."""
        report = self._report
        for hs in self._hosts:
            stats = hs.stats
            stats.device_requests = hs.host.device.stats.requests
            stats.device_bytes_read = hs.host.device.stats.bytes_read
            stats.device_queue_wait_us = hs.host.device.stats.queue_wait_us
            report.host_stats[stats.host] = stats
        if self.injector is not None:
            report.fault_summary = self.injector.summary()
        #: The run's durability event stream (see
        #: :func:`~repro.faults.durability.durability_stream`).
        self.durability_events = (
            durability_stream(self._rec.events) if self._rec is not None else []
        )
        # Completion order depends on latencies; report in the
        # canonical arrival order instead so reports compare equal
        # across runs regardless of how service times interleave.
        report.served.sort(key=lambda s: (s.time_us, s.function))
        return report

    # -- construction --------------------------------------------------

    def _build_hosts(self, env: Environment, tracer) -> None:
        config = self.config
        self._run_tracer = tracer
        shared_store: Optional[FileStore] = None
        self._shared_device: Optional[BlockDevice] = None
        if config.snapshot_tier == TIER_SHARED_EBS:
            shared_device = BlockDevice(
                env, EBS_IO2, metrics_prefix="cluster.shared_device"
            )
            self._shared_device = shared_device
            shared_store = FileStore(env, shared_device)
        self._shared_store = shared_store
        self._hosts: List[_HostState] = []
        self._shared_snapshots: Set[str] = set()
        for index in range(config.num_hosts):
            self._hosts.append(self._make_host_state(index))

    def _make_host_state(self, index: int) -> _HostState:
        """One host plus its bookkeeping and gauges — used both at
        construction and when the live service adds a host mid-run."""
        config = self.config
        host = Host(
            self.env,
            config=config.platform,
            host_id=self._host_id(index),
            store=self._shared_store,
        )
        hs = _HostState(index, host, config)
        if self._costs is not None:
            hs.known_memory = {
                name: entry.warm_memory_mb
                for name, entry in self._costs.items()
            }
        if self._shared_store is not None:
            # One volume: a snapshot captured anywhere restores
            # anywhere.
            hs.snapshots = self._shared_snapshots
        gauge = self.registry.gauge
        host_id = host.host_id
        gauge(
            f"{host_id}.scheduler.active", lambda hs=hs: hs.active
        )
        gauge(
            f"{host_id}.scheduler.queued", lambda hs=hs: hs.queued
        )
        gauge(
            f"{host_id}.scheduler.idle_vms",
            lambda hs=hs: len(hs.idle),
        )
        gauge(
            f"{host_id}.scheduler.memory_mb",
            lambda hs=hs: hs.memory_mb,
        )
        return hs

    def _record_plan(self) -> List[Policy]:
        """Record-phase policies needed per function: every start kind
        eventually runs a plain (sanitize=False) invocation — warm
        reuse and cold boots both do — and FaaSnap-family restores
        additionally need the sanitized record."""
        plan = [Policy.WARM]
        if self.config.restore_policy.is_faasnap_family:
            plan.append(self.config.restore_policy)
        return plan

    def _prepare(self) -> Generator[Event, Any, None]:
        """Prep epoch: run every needed record phase, then return the
        hosts to a cold-cache state. A cost-table run has nothing to
        record."""
        if self._costs is not None:
            return
        config = self.config
        shared = config.snapshot_tier == TIER_SHARED_EBS
        recorders = self._hosts[:1] if shared else self._hosts
        for hs in recorders:
            for fleet_fn in self.fleet:
                profile = self._profiles[fleet_fn.name]
                for policy in self._record_plan():
                    artifacts = yield from hs.host.record_process(
                        profile, config.record_input, policy
                    )
                    if shared:
                        for other in self._hosts[1:]:
                            other.host.adopt_artifacts(
                                config.record_input, artifacts
                            )
        for hs in self._hosts:
            hs.host.drop_caches()

    # -- serving core --------------------------------------------------
    #
    # The historical inline ``_driver(trace)`` loop is gone: the
    # :class:`~repro.service.core.ClusterService` pump owns the loop
    # and calls these three hooks, which carry its exact per-arrival
    # body. Splitting here (epoch start / one dispatch / epoch stop)
    # is what lets the same serving core run both the canned batch
    # replay and the incremental command-driven mode.

    def _start_serving_epoch(self) -> float:
        """Transition from prep to serving: stamp the epoch, arm the
        fault injector against it, start the health monitor. Returns
        the epoch instant (arrival ``time_us`` values are relative to
        it)."""
        prep_end = self.env.now
        self._report.prep_us = prep_end
        # Observability times are serving-relative, like arrivals and
        # fault plans — independent of how long prep took.
        self._obs_epoch_us = prep_end
        if self.injector is not None:
            # Fault times are relative to the serving epoch, so a
            # plan is independent of how long prep happened to take.
            self.injector.arm(self, epoch_us=prep_end)
        if self.monitor is not None:
            self.monitor.start()
        if self.durability is not None:
            for hs in self._hosts:
                self.durability.start_scrubber(hs.host.host_id)
        return prep_end

    def _dispatch_arrival(
        self, arrival: Arrival, instant: float, processes: List[Any]
    ):
        """Place and launch one arrival at the current instant — the
        verbatim per-arrival body of the old driver loop. The serve
        path is chosen per dispatch (not hoisted) so a live ``arm``
        command flips subsequent arrivals onto the robust path."""
        env = self.env
        for hs in self._hosts:
            self._evict_expired(hs, env.now)
        index = self._placement.choose(self._hosts, arrival.function)
        hs = self._hosts[index]
        # Count the placement immediately — the serve process only
        # starts after the driver yields, and same-instant arrivals
        # must see each other's load.
        hs.queued += 1
        ctx = None
        if self._causal is not None or self._flight is not None:
            inv_id = self._inv_seq
            self._inv_seq += 1
            if self._causal is not None:
                self._causal.register(
                    inv_id, arrival.function, arrival.time_us
                )
            ctx = TraceContext(self._rec, inv_id)
        self._emit(
            hs.host.host_id, "dispatch", ctx,
            armed=self._armed, function=arrival.function,
        )
        serve = self._serve_robust if self._armed else self._serve
        proc = env.process(
            serve(hs, arrival, instant, ctx),
            name=f"serve:{arrival.function}@{hs.host.host_id}",
        )
        processes.append(proc)
        # Sampled at each arrival, before its VM reserves memory —
        # in-use memory across all hosts.
        self._report.memory_samples_mb.append(
            sum(h.memory_mb for h in self._hosts)
        )
        return proc

    def _stop_serving_epoch(self) -> None:
        """Tear down the serving epoch's periodic machinery."""
        if self.monitor is not None:
            self.monitor.stop()
        if self.durability is not None:
            self.durability.stop()

    # -- observability plane --------------------------------------------
    #
    # Every cluster-plane event — an invocation's step, a fault, a
    # drain, a cache drop, an SLO alert, a durability action — goes
    # through ``_emit`` once, as one record that the causal document,
    # the flight rings and the durability stream all read. Everything
    # here is *recording-only*: no helper below creates a simulation
    # event, draws from any RNG, or changes a branch the heap takes.
    # That is the zero-perturbation contract — the perf harness runs
    # the cluster workload with every sink attached and requires the
    # exact latency checksum of the bare run.

    def _obs_now(self) -> float:
        """Current virtual time relative to the serving epoch."""
        return self.env.now - self._obs_epoch_us

    def _record_phases(self, hs: "_HostState", ctx, result) -> None:
        """The restore's phase view, built once per page-level start:
        the span tree goes to the run tracer, tagged with the host,
        and its depth-first flattening becomes the invocation's
        ``phase`` records, each stamped at its span's start."""
        if self._run_tracer is not None:
            root = self._run_tracer.add(result, host=hs.host.host_id)
        elif self._causal is not None:
            root = phase_spans(result, host=hs.host.host_id)
        else:
            return
        if self._causal is None:
            return
        epoch = self._obs_epoch_us
        for span, depth in root.walk():
            self._emit(
                None, "phase", ctx, span.start_us - epoch,
                name=span.name, depth=depth, duration_us=span.duration_us,
            )

    def _emit(
        self,
        ring: Optional[str],
        kind: str,
        ctx=None,
        t_us: Optional[float] = None,
        /,
        **detail: Any,
    ) -> None:
        """The cluster plane's one emit call: one record on the serving
        clock — an invocation event of ``ctx``, or a host-level event
        without one — stamped now unless ``t_us`` says otherwise.
        ``ring`` names the host (or
        :data:`~repro.metrics.flight.CLUSTER_RING`) whose flight ring
        shows the record and becomes its ``host`` detail; ``None``
        keeps the record out of the rings. Kinds in
        :data:`_POSTMORTEM_KINDS` then dump a postmortem. A no-op
        when no sink is attached."""
        rec, flight = self._rec, self._flight
        if rec is None and flight is None:
            return
        if t_us is None:
            t_us = self._obs_now()
        inv_id = None if ctx is None else ctx.inv_id
        if ring is not None:
            detail.setdefault("host", ring)
        # Without a causal tracer only the durability stream is kept:
        # a long flight-recorded run must not hold every record.
        if rec is not None and (
            self._causal is not None or kind.startswith(EVENT_PREFIX)
        ):
            rec.emit(inv_id, t_us, kind, **detail)
        if flight is None or ring is None:
            return
        if inv_id is not None:
            detail["inv_id"] = inv_id
        flight.record(t_us, ring, kind, **detail)
        reason = _POSTMORTEM_KINDS.get(kind)
        if reason is not None:
            self._flight_dump(reason, **detail)

    def _record_served(self, served: ServedInvocation) -> None:
        """Append one outcome to the report, feed the SLO monitor, and
        dump a postmortem for a failure. The single funnel for every
        serving path."""
        self._report.served.append(served)
        if self._slo is not None:
            ok = served.outcome not in (
                InvocationOutcome.FAILED,
                InvocationOutcome.SHED,
            )
            fired = self._slo.observe(self._obs_now(), served.latency_us, ok)
            for alert in fired:
                self._emit(
                    CLUSTER_RING, "slo.alert",
                    objective=alert["objective"], rule=alert["rule"],
                )
                self._flight_dump("burn-rate-alert", alert=alert)
        if served.outcome is InvocationOutcome.FAILED:
            self._flight_dump(
                "invocation-failed",
                function=served.function,
                host=served.host,
                attempts=served.attempts,
            )

    def _flight_dump(self, reason: str, **context: Any) -> None:
        """Snapshot the flight rings into a postmortem, annotated with
        whatever health/SLO/recovery state the run has."""
        if self._flight is None:
            return
        if self._slo is not None and "slo" not in context:
            context["slo"] = self._slo.status(self._obs_now())
        if self.monitor is not None:
            context["health"] = self.monitor.summary()
        if self._retry_budget is not None:
            context["retry_budget"] = self._retry_budget.summary()
        if self._hedge_tracker is not None:
            context["hedging"] = self._hedge_tracker.summary()
        context["hosts"] = {
            hs.host.host_id: {
                "healthy": hs.healthy,
                "crashed": hs.host.crashed,
                "active": hs.active,
                "queued": hs.queued,
            }
            for hs in self._hosts
        }
        self._flight.dump(self._obs_now(), reason, **context)

    # -- durability plane -----------------------------------------------

    def _snapshot_checksums(self, host_id: str, function: str):
        """Golden per-chunk checksums of ``function``'s snapshot
        artefacts on ``host_id`` (``None`` before its record phase).
        Cached per (host, function): artefact contents are fixed at
        record time."""
        key = (host_id, function)
        cached = self._checksum_cache.get(key)
        if cached is not None:
            return cached
        hs = self._host_by_id.get(host_id)
        if hs is None:
            return None
        config = self.config
        artifacts = hs.host.cached_artifacts(
            function, config.record_input, config.restore_policy
        )
        if artifacts is None:
            artifacts = hs.host.cached_artifacts(
                function, config.record_input, Policy.WARM
            )
        if artifacts is None:
            return None
        checksums = artifacts.warm_snapshot.memory_file.chunk_checksums(
            config.durability.chunk_pages
        )
        self._checksum_cache[key] = checksums
        return checksums

    def durability_status(self) -> Dict[str, Any]:
        """Canonical durability-plane document (the
        ``durability-status`` service command)."""
        if self.durability is None:
            return {"enabled": False}
        doc: Dict[str, Any] = {"enabled": True}
        doc.update(self.durability.status())
        return doc

    def run_scrub(self) -> Dict[str, Any]:
        """Operator-forced scrub sweep over every host (the ``scrub``
        service command); repairs queue in the background."""
        if self.durability is None:
            return {"enabled": False}
        doc: Dict[str, Any] = {"enabled": True}
        doc.update(self.durability.scrub_now())
        return doc

    # -- live-service control operations -------------------------------
    #
    # Everything below mutates a *running* simulation between event
    # dispatches; the service core exposes each as a journaled
    # command. None of them are reachable from the batch path, so the
    # batch event schedule cannot be perturbed.

    def arm_fault_plan(self, plan: Optional[FaultPlan]) -> FaultInjector:
        """Arm ``plan`` mid-run (fault times relative to *now*),
        upgrading an unarmed run to the robust serving path first.
        A previously armed plan is disarmed; in-flight invocations
        that started unarmed finish their inline attempt, new
        dispatches take the robust path."""
        if self._costs is not None:
            raise ValueError(_TABLE_UNARMED)
        self._install_robust_machinery()
        self._armed = True
        if self.injector is not None:
            self.injector.disarm()
        self.injector = FaultInjector(self.env, plan, observer=self._emit)
        if self.durability is not None:
            self.injector.durability = self.durability
        self.injector.arm(self, epoch_us=self.env.now)
        return self.injector

    def disarm_faults(self) -> None:
        """Cancel pending faults and revoke open degradation windows
        (see :meth:`FaultInjector.disarm`). The robust serving path
        stays on — it is behaviour-identical with no active faults."""
        if self.injector is not None:
            self.injector.disarm()

    def swap_placement(self, name: str) -> None:
        """Hot-swap the placement policy to a fresh ``name`` instance
        (the health-filter and counting wrappers stay in place)."""
        self._hot_placement.swap(name)
        self.config = dataclasses.replace(self.config, placement=name)
        self._report.placement = name

    def set_keepalive(self, ttl_us: float) -> None:
        """Change the keep-alive TTL for all future parking/eviction
        decisions (already-parked VMs are re-judged against the new
        TTL at the next eviction sweep)."""
        if ttl_us < 0:
            raise ValueError("keep-alive TTL must be >= 0")
        self.config = dataclasses.replace(
            self.config, keep_alive_ttl_us=ttl_us
        )

    def set_slo_monitor(self, monitor) -> None:
        """Install (or replace) the SLO monitor that every later
        outcome feeds."""
        self._slo = monitor

    def add_host_live(self) -> _HostState:
        """Grow the cluster by one host at the current instant.

        On the shared-storage tier the new host adopts every recorded
        artefact immediately (the files live on the shared volume) and
        enters rotation at once. On the local tier it must run its own
        record phases first, so it joins *drained* and a background
        process preps it, un-draining when done."""
        index = len(self._hosts)
        hs = self._make_host_state(index)
        self._hosts.append(hs)
        self._host_by_id[hs.host.host_id] = hs
        placement = self._placement
        if isinstance(placement, CountingPlacement):
            placement.add_host(hs.host.host_id)
        if self.monitor is not None:
            self.monitor.states.append(hs)
        config = self.config
        if self._shared_store is not None and index > 0:
            donor = self._hosts[0].host
            for fleet_fn in self.fleet:
                for policy in self._record_plan():
                    artifacts = donor.cached_artifacts(
                        fleet_fn.name, config.record_input, policy
                    )
                    if artifacts is not None:
                        hs.host.adopt_artifacts(
                            config.record_input, artifacts
                        )
            return hs
        hs.drained = True
        hs.healthy = False

        def _prep_new_host() -> Generator[Event, Any, None]:
            for fleet_fn in self.fleet:
                profile = self._profiles[fleet_fn.name]
                for policy in self._record_plan():
                    yield from hs.host.record_process(
                        profile, config.record_input, policy
                    )
            hs.host.drop_caches()
            hs.drained = False
            hs.healthy = True

        self.env.process(
            _prep_new_host(), name=f"prep:{hs.host.host_id}"
        )
        return hs

    def drain_host_live(self, host_id: str) -> int:
        """Take ``host_id`` out of rotation: placement stops choosing
        it and its keep-alive pool is evicted. In-flight invocations
        finish. Returns the number of VMs evicted."""
        hs = self._host_by_id[host_id]
        hs.drained = True
        hs.healthy = False
        evicted = 0
        while True:
            vm = hs.idle.pop_lru()
            if vm is None:
                break
            hs.memory_mb -= vm.memory_mb
            hs.stats.evictions += 1
            self._report.evictions += 1
            self._ctr_evictions.value += 1
            evicted += 1
        self._emit(host_id, "ops.drain", evicted=evicted)
        return evicted

    def undrain_host_live(self, host_id: str) -> None:
        """Return a drained host to rotation (unless it is crashed,
        in which case it stays unhealthy until reboot)."""
        hs = self._host_by_id[host_id]
        hs.drained = False
        if not hs.host.crashed:
            hs.healthy = True
            hs.error_times.clear()
        self._emit(host_id, "ops.undrain")

    def _evict_expired(self, hs: _HostState, now: float) -> None:
        for vm in hs.idle.pop_expired(now, self.config.keep_alive_ttl_us):
            hs.memory_mb -= vm.memory_mb
            hs.stats.evictions += 1
            self._report.evictions += 1
            self._ctr_evictions.value += 1

    def _evict_until_fits(self, hs: _HostState, extra_mb: float) -> None:
        while hs.memory_mb + extra_mb > self.config.memory_budget_mb:
            vm = hs.idle.pop_lru()
            if vm is None:
                break
            hs.memory_mb -= vm.memory_mb
            hs.stats.evictions += 1
            self._report.evictions += 1
            self._ctr_evictions.value += 1

    def _artifacts_for(
        self, hs: _HostState, function: str, policy: Policy
    ) -> RecordArtifacts:
        artifacts = hs.host.cached_artifacts(
            function, self.config.record_input, policy
        )
        if artifacts is None:  # pragma: no cover - prep guarantees it
            raise RuntimeError(
                f"no record artefacts for {function!r} on "
                f"{hs.host.host_id}"
            )
        return artifacts

    # -- serving: one attempt body, two drivers ------------------------
    #
    # ``_attempt`` (below) is the only serve body. An unarmed run (no
    # fault plan, no recovery feature, no durability plane) runs it
    # inline in the serve process: nothing can crash, retry or hedge
    # such a run, so it needs no attempt process, and disabled
    # recovery costs nothing by construction. An armed run goes
    # through ``_serve_robust``: each try runs as its own *attempt
    # process* that a host crash can interrupt, a deadline can
    # abandon, and a hedge can race.

    def _serve(
        self, hs: _HostState, arrival: Arrival, instant: float, ctx=None
    ) -> Generator[Event, Any, ServedInvocation]:
        """Unarmed serve: one inline attempt. Returns the recorded
        outcome."""
        outcome, kind, latency_us = InvocationOutcome.OK, None, None
        try:
            kind, latency_us = yield from self._attempt(hs, arrival, ctx)
        except FaultError:
            # Reachable only when a live ``arm`` lands while this
            # invocation is in flight.
            outcome = InvocationOutcome.FAILED
        return self._conclude(
            hs, arrival, instant, ctx, outcome, kind, 1, latency_us
        )

    def _conclude(
        self,
        hs: _HostState,
        arrival: Arrival,
        instant: float,
        ctx,
        outcome: InvocationOutcome,
        kind: Optional[StartKind],
        attempts: int,
        latency_us: Optional[float] = None,
    ) -> ServedInvocation:
        """Emit the invocation's ``outcome`` event and record it on
        ``hs`` — the one exit of both single-heap serve drivers. The
        latency is read off the clock unless ``latency_us`` (a table
        start's charge) is given."""
        latency = self.env.now - instant if latency_us is None else latency_us
        if outcome is InvocationOutcome.FAILED:
            hs.stats.failures += 1
            self._ctr_failed.inc()
        self._emit(
            hs.host.host_id, "outcome", ctx,
            outcome=outcome.value,
            kind=kind.value if kind is not None else None,
            attempts=attempts,
            latency_us=latency,
            function=arrival.function,
        )
        served = ServedInvocation(
            time_us=arrival.time_us,
            function=arrival.function,
            kind=kind,
            latency_us=latency,
            host=hs.host.host_id,
            outcome=outcome,
            attempts=attempts,
        )
        self._record_served(served)
        return served

    def _shed_on_arrival(self, hs: _HostState, function: str, ctx) -> bool:
        """Count a new arrival against the retry budget, then reject it
        at admission if ``hs`` is drowning (taking one more arrival
        would push everyone's tail out further). A shed undoes the
        placement's queue count and is counted on ``hs``; the caller
        reports the outcome."""
        self._retry_budget.on_arrival()
        depth = self.config.recovery.shedding.max_queue_depth
        if depth is None or hs.load <= depth:
            return False
        hs.queued -= 1
        hs.stats.shed += 1
        self._ctr_shed.inc()
        self._emit(
            hs.host.host_id, "shed", ctx, load=hs.load, function=function
        )
        return True

    def _retry_backoff(
        self,
        failure: AllFailed,
        rounds: int,
        deadline_at: Optional[float],
        hs: _HostState,
        ctx,
        retry_ok: bool = True,
        at: Optional[_HostState] = None,
        **detail: Any,
    ) -> Optional[float]:
        """Judge a round whose attempts all failed: the backoff before
        the next round, or ``None`` to give up.

        A cause that is not a :class:`FaultError` is a genuine bug and
        is re-raised. A retry needs ``retry_ok``, a retryable cause
        (not a deadline), the retry policy's leave, a budget token, and
        room for the backoff before ``deadline_at``. A granted retry is
        counted on ``hs`` and recorded with ``detail`` in the ring of
        ``at``, the host the retry leaves (default ``hs``)."""
        causes = [
            c.cause if isinstance(c, Interrupt) else c
            for c in failure.causes
        ]
        for cause in causes:
            if not isinstance(cause, FaultError):
                raise failure  # a genuine bug — surface it
        retry = self.config.recovery.retry
        if not (
            retry_ok
            and not any(isinstance(c, DeadlineExceeded) for c in causes)
            and retry.enabled
            and rounds < retry.max_attempts
            and self._retry_budget.try_spend()
        ):
            return None
        env = self.env
        backoff = retry.backoff_us(rounds, env.rng)
        if deadline_at is not None and env.now + backoff >= deadline_at:
            return None
        hs.stats.retries += 1
        self._ctr_retries.inc()
        self._emit(
            (hs if at is None else at).host.host_id, "retry", ctx,
            round=rounds, backoff_us=backoff, **detail,
        )
        return backoff

    def _serve_robust(
        self, hs: _HostState, arrival: Arrival, instant: float, ctx=None
    ) -> Generator[Event, Any, None]:
        env = self.env
        recovery = self.config.recovery
        function = arrival.function
        tracker = self._hedge_tracker
        if self._shed_on_arrival(hs, function, ctx):
            self._record_served(
                ServedInvocation(
                    time_us=arrival.time_us,
                    function=function,
                    kind=None,
                    latency_us=0.0,
                    host=hs.host.host_id,
                    outcome=InvocationOutcome.SHED,
                    attempts=0,
                )
            )
            return

        deadline_at = (
            instant + recovery.deadline_us
            if recovery.deadline_us is not None
            else None
        )
        rounds = 0
        launched = 0
        pre_counted = True
        current = hs
        outcome: Optional[InvocationOutcome] = None
        winner_kind: Optional[StartKind] = None
        winner_host = hs

        while outcome is None:
            rounds += 1
            launched += 1
            procs = [
                self._launch_attempt(
                    current, arrival, pre_counted, ctx, launched
                )
            ]
            hosts_used = [current]
            starts = [env.now]
            attempt_ids = [launched]
            pre_counted = False
            hedged_this_round = False
            round_failure: Optional[BaseException] = None

            while True:
                race = env.first_success(procs)
                waits: List[Event] = [race]
                deadline_evt = hedge_evt = None
                if deadline_at is not None:
                    deadline_evt = env.wake_at(max(deadline_at, env.now))
                    waits.append(deadline_evt)
                if (
                    recovery.hedge.enabled
                    and not hedged_this_round
                    and len(procs) == 1
                ):
                    threshold = tracker.threshold_us()
                    if threshold is not None:
                        fire_at = starts[0] + threshold
                        if fire_at > env.now and (
                            deadline_at is None or fire_at < deadline_at
                        ):
                            hedge_evt = env.wake_at(fire_at)
                            waits.append(hedge_evt)
                try:
                    yield env.any_of(waits)
                except AllFailed as exc:
                    round_failure = exc
                    break
                if race.triggered and race.ok:
                    windex, (winner_kind, _) = race.value
                    winner_host = hosts_used[windex]
                    if len(procs) > 1:
                        # The winner/loser link of a hedge pair.
                        self._emit(
                            None, "hedge-result", ctx,
                            winner=attempt_ids[windex],
                            losers=tuple(
                                a
                                for a in attempt_ids
                                if a != attempt_ids[windex]
                            ),
                        )
                    for pos, proc in enumerate(procs):
                        if pos != windex and proc.is_alive:
                            proc.interrupt("lost the hedge race")
                            tracker.cancelled += 1
                    if tracker is not None:
                        tracker.record(env.now - starts[windex])
                    if windex > 0:
                        tracker.won += 1
                        outcome = InvocationOutcome.HEDGE_WON
                    elif rounds > 1:
                        outcome = InvocationOutcome.RETRIED
                    else:
                        outcome = InvocationOutcome.OK
                    break
                # Timeouts are born triggered (the pooled fast path
                # decides their value at creation); ``processed`` is
                # the "has actually fired" test.
                if deadline_evt is not None and deadline_evt.processed:
                    cause = DeadlineExceeded(function, recovery.deadline_us)
                    self._emit(
                        None, "deadline-exceeded", ctx,
                        deadline_us=recovery.deadline_us,
                    )
                    for proc in procs:
                        if proc.is_alive:
                            proc.interrupt(cause)
                    outcome = InvocationOutcome.FAILED
                    break
                if hedge_evt is not None and hedge_evt.processed:
                    hedged_this_round = True
                    other = pick_failover(
                        self._hosts, self._failover_placement, current,
                        function,
                    )
                    if other is not None:
                        launched += 1
                        tracker.fired += 1
                        other.stats.hedges += 1
                        self._emit(
                            other.host.host_id, "hedge", ctx,
                            attempt=launched,
                            threshold_us=threshold,
                            function=function,
                        )
                        procs.append(
                            self._launch_attempt(
                                other, arrival, False, ctx, launched
                            )
                        )
                        hosts_used.append(other)
                        starts.append(env.now)
                        attempt_ids.append(launched)
                    continue
                continue  # pragma: no cover - no other wake source

            if outcome is not None:
                break

            # The whole round failed: retry (with backoff + failover)
            # or give up.
            backoff = self._retry_backoff(
                round_failure, rounds, deadline_at, hs, ctx,
                at=current, function=function,
            )
            if backoff is None:
                outcome = InvocationOutcome.FAILED
                break
            if backoff > 0:
                yield env.timeout(backoff)
            if recovery.failover:
                nxt = pick_failover(
                    self._hosts, self._failover_placement, current, function
                )
                if nxt is not None:
                    current = nxt
                    self._emit(
                        None, "failover", ctx, host=current.host.host_id
                    )

        if outcome is InvocationOutcome.FAILED:
            winner_host = current
        self._conclude(
            winner_host, arrival, instant, ctx, outcome, winner_kind, launched
        )

    def _launch_attempt(
        self,
        target: _HostState,
        arrival: Arrival,
        pre_counted: bool,
        ctx=None,
        attempt_no: int = 1,
    ):
        """Spawn one attempt process on ``target`` and register it for
        crash interruption. ``pre_counted`` marks the first attempt,
        whose queue slot the driver already counted at placement."""
        if not pre_counted:
            target.queued += 1
        proc = self.env.process(
            self._attempt(target, arrival, ctx, attempt_no),
            name=f"attempt:{arrival.function}@{target.host.host_id}",
        )
        target.attempt_procs[proc] = None
        proc.callbacks.append(
            lambda evt, t=target, p=proc: t.attempt_procs.pop(p, None)
        )
        return proc

    def _attempt(
        self, hs: _HostState, arrival: Arrival, ctx=None, attempt_no: int = 1
    ) -> Generator[Event, Any, Tuple[StartKind, Optional[float]]]:
        """One try at serving ``arrival`` on ``hs`` — the only serve
        body. Its bookkeeping makes it abortable: queue/active counts,
        memory reservation and admission slots all unwind on
        interruption.

        Returns the start kind and, for a cost-table start, its
        latency: the admission wait plus the table entry. Summing the
        two keeps the entry exact, where a difference of two clock
        readings can be an ulp off; a page-level start returns
        ``None`` and is timed off the clock."""
        env = self.env
        config = self.config
        recovery = config.recovery
        function = arrival.function
        started = env.now

        self._emit(
            None, "attempt", ctx, attempt=attempt_no, host=hs.host.host_id
        )
        if hs.host.crashed:
            # Placed onto a host that died before we started.
            self._emit(
                hs.host.host_id, "attempt-failed", ctx,
                attempt=attempt_no, cause="HostCrashed", function=function,
            )
            raise HostCrashed(hs.host.host_id)

        slot = None
        admitted = False
        reserved_mb = 0.0
        try:
            if hs.admission is not None:
                slot = hs.admission.request()
                yield slot
            hs.queued -= 1
            hs.active += 1
            admitted = True
            wait_us = env.now - started
            hs.stats.admission_wait_us += wait_us
            self._emit(
                None, "admitted", ctx, attempt=attempt_no, wait_us=wait_us
            )

            policy = config.restore_policy
            shedding = recovery.shedding
            if (
                shedding.degraded_queue_depth is not None
                and hs.load > shedding.degraded_queue_depth
                and policy is not shedding.degraded_policy
            ):
                # Graceful degradation: under pressure, give up the
                # page-level restore win for the cheaper baseline
                # instead of falling over.
                policy = shedding.degraded_policy
                hs.stats.degraded_starts += 1
                self._ctr_degraded.inc()
                self._emit(
                    hs.host.host_id, "degraded", ctx,
                    attempt=attempt_no, policy=policy.value,
                    function=function,
                )

            vm = hs.idle.reuse_mru(function)
            if vm is not None:
                kind = StartKind.WARM
                self._emit(
                    None, "start", ctx, attempt=attempt_no, kind=kind.value
                )
            else:
                has_snapshot = config.snapshots_enabled and (
                    config.assume_snapshots_exist
                    or function in hs.snapshots
                )
                if has_snapshot and self.durability is not None:
                    # Replica-aware placement: with every replica
                    # quarantined the snapshot is rebuilding, and the
                    # restore falls through to a cold boot — the
                    # rebuild-from-scratch leg of the escalation
                    # chain, priced at the cold-start lower bound.
                    has_snapshot = self.durability.has_readable(
                        hs.host.host_id, function
                    )
                kind = (
                    StartKind.SNAPSHOT if has_snapshot else StartKind.COLD
                )
                estimate = hs.known_memory.get(function, 0.0)
                self._evict_until_fits(hs, estimate)
                hs.memory_mb += estimate
                reserved_mb = estimate
                vm = PooledVm(
                    function=function,
                    memory_mb=estimate,
                    busy_until=0.0,
                    last_used=env.now,
                )
                self._emit(
                    None, "start", ctx, attempt=attempt_no, kind=kind.value
                )
                if kind is StartKind.SNAPSHOT:
                    if self.durability is not None:
                        # Verified restore: check the chosen replica's
                        # stored checksums against the golden set at
                        # read time. Detection quarantines the replica
                        # and fails the attempt, so the recovery loop
                        # retries — and the next pick fails over to a
                        # healthy replica (or a cold rebuild).
                        verdict = self.durability.verify_restore(
                            hs.host.host_id, function
                        )
                        if verdict == VERIFY_CORRUPT:
                            hs.stats.snapshot_corruptions += 1
                            self._ctr_corrupt.inc()
                            self._emit(
                                None, "verify-failed", ctx,
                                attempt=attempt_no, host=hs.host.host_id,
                            )
                            raise SnapshotCorrupted(
                                hs.host.host_id, function
                            )
                        if verdict == VERIFY_SILENT:
                            self._emit(
                                None, "verify-skipped", ctx,
                                attempt=attempt_no, host=hs.host.host_id,
                            )
                    elif (
                        self.injector is not None
                        and self.injector.check_snapshot(
                            hs.host.host_id, function
                        )
                    ):
                        hs.stats.snapshot_corruptions += 1
                        self._ctr_corrupt.inc()
                        raise SnapshotCorrupted(hs.host.host_id, function)

            latency_us: Optional[float] = None
            result = None
            if self._costs is not None:
                entry = self._costs[function]
                charge_us = entry.start_cost_us(kind.value)
                yield env.timeout(charge_us)
                latency_us = wait_us + charge_us
                actual_mb = entry.warm_memory_mb
            else:
                if kind is StartKind.WARM:
                    result = yield from hs.host.invocation(
                        self._artifacts_for(hs, function, Policy.WARM),
                        config.test_input,
                        Policy.WARM,
                    )
                elif kind is StartKind.SNAPSHOT:
                    result = yield from self._snapshot_start(
                        hs, function, policy=policy
                    )
                else:
                    result = yield from self._cold_start(hs, function)
                # Learn the function's warm footprint from the actual VM.
                actual_mb = result.rss_pages * PAGE_SIZE / 1e6
            hs.memory_mb += actual_mb - vm.memory_mb
            vm.memory_mb = actual_mb
            reserved_mb = 0.0
            hs.known_memory[function] = actual_mb
            # The first completed invocation leaves a snapshot behind
            # (fleet semantics; shared storage publishes cluster-wide).
            hs.snapshots.add(function)
            if self.durability is not None:
                # A completed invocation (re)publishes the snapshot;
                # for a fully-quarantined set this is the rebuild
                # completing. Quarantined replicas of a partially
                # healthy set are NOT touched — repair is the only
                # healing path.
                self.durability.publish(hs.host.host_id, function)
            if kind is StartKind.SNAPSHOT and self.monitor is not None:
                # Gray-failure signal: restore latency, fed to the
                # fail-slow outlier score (recording only unless
                # ``fail_slow_factor`` is armed).
                self.monitor.note_restore_latency(
                    hs, env.now - started
                )

            now = env.now
            vm.busy_until = now
            vm.last_used = now
            if config.keep_alive_ttl_us > 0:
                hs.idle.park(vm)
            else:
                hs.memory_mb -= vm.memory_mb

            hs.stats.invocations += 1
            self._ctr_invocations.value += 1
            if kind is StartKind.WARM:
                hs.stats.warm_starts += 1
                self._ctr_warm.value += 1
            elif kind is StartKind.SNAPSHOT:
                hs.stats.snapshot_starts += 1
                self._ctr_snapshot.value += 1
            else:
                hs.stats.cold_starts += 1
                self._ctr_cold.value += 1
            self._emit(
                None, "attempt-ok", ctx,
                attempt=attempt_no,
                host=hs.host.host_id,
                kind=kind.value,
                latency_us=env.now - started,
            )
            if result is not None:
                self._record_phases(hs, ctx, result)
            return kind, latency_us
        except BaseException as exc:
            cause = exc.cause if isinstance(exc, Interrupt) else exc
            if isinstance(cause, (DeviceError, SnapshotCorrupted)):
                self._note_failure(hs)
            if isinstance(cause, str):
                # A hedge loser interrupted with a reason string.
                self._emit(
                    None, "attempt-cancelled", ctx,
                    attempt=attempt_no, host=hs.host.host_id, reason=cause,
                )
            else:
                self._emit(
                    hs.host.host_id, "attempt-failed", ctx,
                    attempt=attempt_no,
                    cause=type(cause).__name__,
                    function=function,
                )
            raise
        finally:
            if reserved_mb:
                hs.memory_mb -= reserved_mb
            if admitted:
                hs.active -= 1
            else:
                hs.queued -= 1
            if slot is not None:
                hs.admission.release(slot)

    def _note_failure(self, hs: _HostState) -> None:
        """Feed one attempt failure into the health plane."""
        if self.monitor is not None:
            self.monitor.note_failure(hs)
        else:
            hs.error_times.append(self.env.now)

    # -- fault-injector target interface -------------------------------

    def devices_for_scope(self, scope: str) -> List[BlockDevice]:
        """Resolve a :class:`~repro.faults.DeviceFault` scope to the
        block devices it degrades (deduplicated: on the shared tier
        every host's primary device is the one shared volume)."""
        if scope == "shared":
            return [self._shared_device] if self._shared_device else []
        if scope == "*":
            devices: List[BlockDevice] = []
            for hs in self._hosts:
                if all(d is not hs.host.device for d in devices):
                    devices.append(hs.host.device)
            return devices
        hs = self._host_by_id.get(scope)
        if hs is None:
            raise ValueError(f"device-fault scope {scope!r} matches no host")
        return [hs.host.device]

    def crash_host(self, host_id: str) -> None:
        """Power-fail ``host_id``: volatile host state dies, the
        keep-alive pool is lost, and every in-flight attempt aborts
        with :class:`HostCrashed` (the serve loops then retry on
        other hosts, within policy)."""
        hs = self._host_by_id[host_id]
        if hs.host.crashed:
            return
        hs.host.crash()
        hs.healthy = False
        hs.last_bad_us = self.env.now
        vms_lost = 0
        while True:
            vm = hs.idle.pop_lru()
            if vm is None:
                break
            hs.memory_mb -= vm.memory_mb
            hs.stats.crash_vm_losses += 1
            vms_lost += 1
        interrupted = 0
        for proc in list(hs.attempt_procs):
            if proc.is_alive:
                proc.interrupt(HostCrashed(host_id))
                interrupted += 1
        hs.attempt_procs.clear()
        # Wake anyone sleeping on a read whose owner just died.
        hs.host.cache.abandon_all_pending()
        self._emit(
            host_id, "fault.crash",
            vms_lost=vms_lost, attempts_interrupted=interrupted,
        )

    def reboot_host(self, host_id: str) -> None:
        """Bring a crashed host back cold. With a health monitor the
        host stays drained until it passes the quiet period; without
        one it returns to rotation immediately."""
        hs = self._host_by_id[host_id]
        hs.host.reboot()
        hs.error_times.clear()
        hs.last_bad_us = self.env.now
        if self.monitor is None and not hs.drained:
            hs.healthy = True
        self._emit(host_id, "fault.reboot")

    def _snapshot_start(self, hs: _HostState, function: str, policy: Policy):
        """Page-level snapshot restore + invocation on ``hs``.

        ``policy`` is the restore policy (the degraded-mode path
        passes the cheaper baseline).
        """
        config = self.config
        artifacts = self._artifacts_for(hs, function, policy)
        in_flight = hs.disk_active.get(function, 0)
        hs.disk_active[function] = in_flight + 1
        if config.cold_cache_between_runs and in_flight == 0:
            # Nobody else is restoring this function here: reproduce
            # the cost-table methodology (cold caches, fresh readahead
            # window) for a function that has not run recently.
            hs.host.drop_function_caches(artifacts)
            self._emit(hs.host.host_id, "page-cache.drop", function=function)
        gate = hs.acquire_gate(artifacts)
        try:
            result = yield from hs.host.invocation(
                artifacts,
                config.test_input,
                policy,
                loader_gate=gate,
            )
        finally:
            hs.release_gate(artifacts)
            hs.disk_active[function] -= 1
        return result

    def _cold_start(self, hs: _HostState, function: str):
        """VMM start + kernel boot + runtime init, then the invocation
        runs warm-equivalent (nothing pages in from a snapshot). The
        result carries the boot's start, so its phases show the boot."""
        config = self.config
        profile = self._profiles[function]
        boot_start_us = self.env.now
        yield self.env.timeout(
            config.platform.vmm.vmm_start_us
            + config.platform.vmm.cold_boot_us
            + profile.runtime_init_us
        )
        result = yield from hs.host.invocation(
            self._artifacts_for(hs, function, Policy.WARM),
            config.test_input,
            Policy.WARM,
        )
        result.boot_start_us = boot_start_us
        return result
