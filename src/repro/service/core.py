"""The cluster service core: an incrementally-advanced simulation
driven by a command stream.

:class:`ClusterService` wraps a
:class:`~repro.cluster.scheduler.ClusterSimulator` and owns its run
lifecycle. Construction performs exactly the setup the legacy batch
``run`` performed (``_begin_run``, sampler, driver process) but the
driver is now a *pump*: a resident process that sleeps until the next
pending arrival's instant, dispatches it through the scheduler's
serving hooks, and — when the pending heap is empty — parks on a
mailbox event until new arrivals are injected or the service is
drained. Virtual time only moves when a command moves it
(:meth:`ClusterService.execute` with an ``advance``), so operators can
interleave control actions (swap placement, arm faults, grow the
cluster) between precisely-chosen instants.

Determinism contract: every state-changing command is journaled with
a digest of simulation state taken immediately after it; ``advance``
entries also record the arrivals pulled from the service's source.
Replaying a journal (:func:`replay_journal`) therefore needs no
source and must reproduce every digest bit-for-bit.

Batch compatibility: :meth:`ClusterService.run_batch` is the canned
command stream ``inject(everything); drain()``. With all arrivals
pre-injected the pump's mailbox is never created, and its
peek/sleep/pop/dispatch sequence is event-for-event identical to the
historical inline driver loop — the perf harness's cluster checksums
gate this bit-parity.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.faults.plan import FaultPlan
from repro.fleet.workload import (
    Arrival,
    ArrivalSource,
    PoissonArrivalSource,
    TraceArrivalSource,
    generate_arrivals,
    synthesize_fleet,
)
from repro.metrics.exporters import DeltaExporter, canonical_sha256
from repro.metrics.slo import SloMonitor
from repro.metrics.telemetry import Sampler
from repro.service.commands import (
    COMMANDS,
    AdvanceCommand,
    Command,
    DrainCommand,
    InjectCommand,
    StatusCommand,
    command_from_dict,
)
from repro.service.journal import (
    DIGEST_COMPONENTS,
    JournalWriter,
    first_mismatch,
    read_journal,
)
from repro.sim import Event, Interrupt


#: The SHA-256 digest components a status command's result carries.
_DIGEST_EXTENSIONS = tuple(
    key for key in DIGEST_COMPONENTS if key.endswith("_sha256")
)


class ServiceError(RuntimeError):
    """A command that cannot be executed in the service's current
    state."""


class ClusterService:
    """A live, command-driven cluster simulation.

    ``simulator`` is a fresh :class:`ClusterSimulator`; the service
    begins its run immediately (environment, hosts and prep are set
    up, but no virtual time passes until a command advances it).
    ``arrival_source`` feeds ``advance`` commands; without one, only
    explicitly injected arrivals are served. ``journal`` (a
    :class:`~repro.service.journal.JournalWriter`) records every
    state-changing command.
    """

    def __init__(
        self,
        simulator,
        *,
        arrival_source: Optional[ArrivalSource] = None,
        tracer=None,
        sampler_interval_us: Optional[float] = None,
        fault_plan: Optional[FaultPlan] = None,
        journal: Optional[JournalWriter] = None,
        causal=None,
        slo: Optional[SloMonitor] = None,
        flight=None,
    ):
        self.simulator = simulator
        self._source = arrival_source
        self._journal = journal
        self.causal = causal
        self.slo = slo
        self.flight = flight
        # Mirror the legacy batch ``run`` construction order exactly:
        # _begin_run, then sampler creation + start, then the driver
        # process — anything else would shift event sequence numbers.
        env = simulator._begin_run(
            tracer, fault_plan, causal=causal, slo=slo, flight=flight
        )
        self.env = env
        simulator.sampler = None
        self.sampler: Optional[Sampler] = None
        if sampler_interval_us is not None:
            self.sampler = Sampler(
                simulator.registry, env, sampler_interval_us
            )
            simulator.sampler = self.sampler
            self.sampler.start()
        self._delta = DeltaExporter(simulator.registry)
        #: Pending arrivals: ``(epoch-relative time_us, tiebreak,
        #: Arrival)``. The monotone tiebreak keeps heap order stable
        #: for same-instant arrivals and keeps ``Arrival`` out of
        #: comparisons.
        self._pending: List[Tuple[float, int, Arrival]] = []
        self._tiebreak = itertools.count()
        self._procs: List[Any] = []
        self._mailbox: Optional[Event] = None
        self._sleeping_until: Optional[float] = None
        self._draining = False
        self._started = False
        self._finished = False
        self._epoch_us: Optional[float] = None
        self._entry_seq = 0
        self.report = None
        self._prep_done = Event(env)
        self._proc = env.process(self._pump(), name="cluster-driver")

    # -- the pump ------------------------------------------------------

    def _pump(self):
        sim = self.simulator
        env = self.env
        yield from sim._prepare()
        prep_end = sim._start_serving_epoch()
        self._epoch_us = prep_end
        # Commands gate on prep completion; succeeding an event the
        # batch path never waits on costs one extra heap event and
        # nothing else.
        self._prep_done.succeed(prep_end)
        pending = self._pending
        procs = self._procs
        while True:
            if not pending:
                if self._draining:
                    break
                # Idle: park until an inject/drain pokes the mailbox.
                self._mailbox = Event(env)
                yield self._mailbox
                self._mailbox = None
                continue
            instant = prep_end + pending[0][0]
            if env.now < instant:
                self._sleeping_until = instant
                interrupted = False
                try:
                    yield env.wake_at(instant)
                except Interrupt:
                    # An earlier arrival landed while we slept;
                    # re-peek the heap.
                    interrupted = True
                finally:
                    self._sleeping_until = None
                if interrupted:
                    continue
            _, _, arrival = heapq.heappop(pending)
            # ``instant`` may be in the past for late injections; the
            # dispatch happens now, the nominal arrival instant keeps
            # queue delay inside the reported latency.
            sim._dispatch_arrival(arrival, instant, procs)
        if procs:
            yield env.all_of(procs)
        sim._stop_serving_epoch()

    def _push_arrivals(self, arrivals: List[Arrival]) -> None:
        pending = self._pending
        for arrival in arrivals:
            heapq.heappush(
                pending,
                (arrival.time_us, next(self._tiebreak), arrival),
            )
        if not pending:
            return
        if self._mailbox is not None and not self._mailbox.triggered:
            self._mailbox.succeed()
        elif self._sleeping_until is not None:
            first = (self._epoch_us or 0.0) + pending[0][0]
            if first < self._sleeping_until:
                self._proc.interrupt("earlier arrival injected")

    def _ensure_started(self) -> None:
        """Run the prep epoch to completion (first command only)."""
        if self._started:
            return
        self._started = True
        self.env.run(until=self._prep_done)

    # -- digests -------------------------------------------------------

    def digest(self) -> Dict[str, Any]:
        """Fingerprint of simulation state: the journal's equality
        gate. Cheap scalars only — virtual clock, served count, the
        latency checksum the perf harness also pins, and the kernel's
        event counter (any divergence in event scheduling shows up
        here even when latencies happen to agree)."""
        served = self.simulator._report.served
        return {
            "t_us": round(self.env.now, 3),
            "served": len(served),
            "latency_checksum_us": round(
                sum(s.latency_us for s in served), 2
            ),
            "events": self.env.events_processed,
        }

    def telemetry_delta(self) -> Tuple[Dict[str, Any], str]:
        """One incremental telemetry document plus its canonical-JSON
        SHA-256 (the digest extension ``snapshot-telemetry`` pins)."""
        doc = self._delta.delta(now_us=self.env.now)
        return doc, canonical_sha256(doc)

    def slo_status(self) -> Tuple[Dict[str, Any], str]:
        """The SLO monitor's canonical status document at the current
        virtual time, plus its SHA-256 (the digest extension
        ``slo-status`` pins). With no monitor installed the document
        is ``{"enabled": false}`` so replays of an SLO-free run still
        digest identically."""
        monitor = self.slo
        if monitor is None:
            doc: Dict[str, Any] = {"enabled": False}
            return doc, canonical_sha256(doc)
        now = self.env.now - (self._epoch_us or 0.0)
        return monitor.status_sha(now)

    def durability_status(self) -> Tuple[Dict[str, Any], str]:
        """The durability subsystem's canonical status document plus
        its SHA-256 (the digest extension ``durability-status`` pins).
        With durability disabled the document is
        ``{"enabled": false}`` so replays of a durability-free run
        still digest identically."""
        doc = self.simulator.durability_status()
        return doc, canonical_sha256(doc)

    # -- command execution ---------------------------------------------

    def execute(self, command: Command) -> Dict[str, Any]:
        """Execute one command, journal it, return its result dict
        (always containing ``digest``). ``status`` is a read-only
        probe: never journaled, never starts the run."""
        if isinstance(command, StatusCommand):
            return self.status()
        result = self._apply(command)
        if self._journal is not None:
            self._entry_seq += 1
            entry: Dict[str, Any] = {
                "seq": self._entry_seq,
                "cmd": command.to_dict(),
            }
            if "pulled" in result:
                entry["pulled"] = result["pulled"]
            entry["digest"] = result["digest"]
            self._journal.append(entry)
        return result

    def execute_entry(self, entry: Dict[str, Any]) -> Dict[str, Any]:
        """Replay one journal entry: re-execute its command using the
        *recorded* pulled arrivals (never the live source), and return
        the result with the freshly computed digest — the caller
        compares it against ``entry["digest"]``."""
        command = command_from_dict(entry["cmd"])
        replay: Dict[str, Any] = {}
        if isinstance(command, AdvanceCommand):
            replay["pulled"] = [
                Arrival(time_us=float(t), function=str(fn))
                for t, fn in entry.get("pulled", [])
            ]
        return self._apply(command, **replay)

    def _apply(self, command: Command, **replay) -> Dict[str, Any]:
        """Run ``command``'s handler as :data:`COMMANDS` declares it,
        and add the state digest (with any SHA-256 extension the
        handler produced) to its result."""
        spec = COMMANDS[command.name]
        if self._finished and not spec.after_drain:
            raise ServiceError(
                f"service already drained; {command.name!r} rejected"
            )
        if spec.starts_run:
            self._ensure_started()
        result = getattr(self, spec.handler)(command, **replay)
        digest = self.digest()
        for key in _DIGEST_EXTENSIONS:
            if key in result:
                digest[key] = result[key]
        result["digest"] = digest
        return result

    # -- command handlers (one per COMMANDS entry) -----------------------

    def _on_inject(self, command: InjectCommand) -> Dict[str, Any]:
        # Valid before start: batch mode pre-loads the heap so the pump
        # never parks (exact legacy event schedule).
        arrivals = [
            Arrival(time_us=t, function=fn) for t, fn in command.arrivals
        ]
        self._push_arrivals(arrivals)
        return {"injected": len(arrivals)}

    def _on_advance(
        self, command: AdvanceCommand, pulled: Optional[List[Arrival]] = None
    ) -> Dict[str, Any]:
        horizon = self.env.now + command.ms * 1000.0
        if pulled is None:
            if self._source is not None:
                pulled = self._source.take_until(
                    horizon - (self._epoch_us or 0.0)
                )
            else:
                pulled = []
        if pulled:
            self._push_arrivals(pulled)
        events = self.env.advance_to(horizon)
        return {
            "advanced_to_us": self.env.now,
            "events": events,
            "pulled": [[a.time_us, a.function] for a in pulled],
        }

    def _on_add_host(self, command) -> Dict[str, Any]:
        sim = self.simulator
        hs = sim.add_host_live()
        return {
            "host": hs.host.host_id,
            "drained": hs.drained,
            "hosts": len(sim._hosts),
        }

    def _on_drain_host(self, command) -> Dict[str, Any]:
        evicted = self.simulator.drain_host_live(command.host)
        return {"host": command.host, "evicted": evicted}

    def _on_undrain_host(self, command) -> Dict[str, Any]:
        self.simulator.undrain_host_live(command.host)
        return {"host": command.host}

    def _on_swap_placement(self, command) -> Dict[str, Any]:
        self.simulator.swap_placement(command.policy)
        return {"placement": command.policy}

    def _on_arm(self, command) -> Dict[str, Any]:
        plan = FaultPlan.from_dict(command.plan)
        self.simulator.arm_fault_plan(plan)
        return {"faults": len(plan)}

    def _on_disarm(self, command) -> Dict[str, Any]:
        self.simulator.disarm_faults()
        return {"disarmed": True}

    def _on_set_keepalive(self, command) -> Dict[str, Any]:
        sim = self.simulator
        sim.set_keepalive(command.ttl_ms * 1000.0)
        return {"keep_alive_ttl_us": sim.config.keep_alive_ttl_us}

    def _on_snapshot_telemetry(self, command) -> Dict[str, Any]:
        doc, sha = self.telemetry_delta()
        return {"telemetry": doc, "telemetry_sha256": sha}

    def _on_set_slo(self, command) -> Dict[str, Any]:
        monitor = SloMonitor.from_dict(command.config)
        self.simulator.set_slo_monitor(monitor)
        self.slo = monitor
        return {"slo": monitor.config_dict()}

    def _on_slo_status(self, command) -> Dict[str, Any]:
        doc, sha = self.slo_status()
        return {"slo": doc, "slo_sha256": sha}

    def _on_scrub(self, command) -> Dict[str, Any]:
        return {"scrub": self.simulator.run_scrub()}

    def _on_durability_status(self, command) -> Dict[str, Any]:
        doc, sha = self.durability_status()
        return {"durability": doc, "durability_sha256": sha}

    def _on_status(self, command) -> Dict[str, Any]:
        return self.status()

    def _on_drain(self, command) -> Dict[str, Any]:
        report = self.drain()
        return {
            "served": len(report.served),
            "mean_latency_us": report.mean_latency_us(),
        }

    # -- lifecycle -----------------------------------------------------

    def drain(self):
        """Stop intake, let the pump serve out every pending arrival
        and in-flight invocation, then finish the run. Mirrors the
        legacy ``run`` epilogue (sampler stop, then report folding)."""
        if self._finished:
            raise ServiceError("service already drained")
        self._draining = True
        self._started = True
        if self._mailbox is not None and not self._mailbox.triggered:
            self._mailbox.succeed()
        self.env.run(until=self._proc)
        if self.sampler is not None:
            self.sampler.stop()
        self.report = self.simulator._finish_run()
        self._finished = True
        return self.report

    def run_batch(self, trace):
        """The legacy batch entry point as a canned command stream:
        inject the whole trace, drain. Bit-identical to the historical
        inline driver loop."""
        self.execute(InjectCommand.from_arrivals(trace.arrivals))
        self.execute(DrainCommand())
        return self.report

    def status(self) -> Dict[str, Any]:
        """Read-only probe of live state (not journaled)."""
        sim = self.simulator
        report = sim._report
        hosts = []
        for hs in getattr(sim, "_hosts", []):
            hosts.append(
                {
                    "host": hs.host.host_id,
                    "healthy": hs.healthy,
                    "drained": hs.drained,
                    "crashed": hs.host.crashed,
                    "active": hs.active,
                    "queued": hs.queued,
                    "idle_vms": len(hs.idle),
                    "memory_mb": round(hs.memory_mb, 3),
                }
            )
        return {
            "t_us": self.env.now,
            "started": self._started,
            "finished": self._finished,
            "pending": len(self._pending),
            "served": len(report.served),
            "placement": sim.config.placement,
            "keep_alive_ttl_us": sim.config.keep_alive_ttl_us,
            "armed": sim._armed,
            "hosts": hosts,
        }


# -- construction from a spec ------------------------------------------

_SPEC_DEFAULTS: Dict[str, Any] = {
    "functions": 8,
    "fleet_seed": 1,
    "profiles": ["json", "pyaes"],
    "hosts": 2,
    "placement": "least-loaded",
    "policy": "faasnap",
    "tier": "local-nvme",
    "ttl_us": 15 * 60 * 1_000_000.0,
    "memory_mb": 16_384.0,
    "max_concurrent": None,
    "seed": 0,
    "sampler_interval_us": None,
    "source": {"kind": "none"},
    "fault_plan": None,
    "slo": None,
    "durability": None,
}


def normalize_spec(spec: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Fill a (possibly partial) service spec with defaults; the
    result is what the journal header stores, so replays see every
    knob explicitly."""
    merged = dict(_SPEC_DEFAULTS)
    for key, value in (spec or {}).items():
        if key not in _SPEC_DEFAULTS:
            raise ServiceError(f"unknown spec key {key!r}")
        merged[key] = value
    return merged


def cluster_inputs(spec: Optional[Dict[str, Any]] = None) -> tuple:
    """The ``(fleet, ClusterConfig)`` a spec describes (see
    :func:`normalize_spec` for keys and defaults): the one place the
    CLI and the service turn topology knobs into a cluster config."""
    from repro.cluster.scheduler import ClusterConfig
    from repro.core import Policy
    from repro.faults.durability import (
        DISABLED_DURABILITY,
        DurabilityPolicy,
    )

    spec = normalize_spec(spec)
    fleet = synthesize_fleet(
        int(spec["functions"]),
        seed=int(spec["fleet_seed"]),
        profile_names=tuple(spec["profiles"]),
    )
    config = ClusterConfig(
        num_hosts=int(spec["hosts"]),
        placement=str(spec["placement"]),
        restore_policy=Policy(spec["policy"]),
        keep_alive_ttl_us=float(spec["ttl_us"]),
        memory_budget_mb=float(spec["memory_mb"]),
        snapshot_tier=str(spec["tier"]),
        max_concurrent_per_host=spec["max_concurrent"],
        seed=int(spec["seed"]),
        durability=(
            DurabilityPolicy.from_dict(spec["durability"])
            if spec["durability"] is not None
            else DISABLED_DURABILITY
        ),
    )
    return fleet, config


def build_service(
    spec: Optional[Dict[str, Any]] = None,
    *,
    arrival_source: Optional[ArrivalSource] = None,
    journal: Optional[JournalWriter] = None,
    use_source: bool = True,
    tracer=None,
    causal=None,
    flight=None,
) -> ClusterService:
    """Build a :class:`ClusterService` from a spec dict (see
    :func:`normalize_spec` for keys and defaults).

    ``arrival_source`` overrides the spec's ``source`` stanza (the CLI
    uses this for stdin/file streams, recorded in the spec as kind
    ``external``). ``use_source=False`` builds the service with no
    source regardless of spec — the replay path, which feeds recorded
    pulls instead. ``tracer``, ``causal`` and ``flight`` are the
    recorders :class:`ClusterService` takes; they observe the run and
    are not part of the spec."""
    from repro.cluster.scheduler import ClusterSimulator

    spec = normalize_spec(spec)
    fleet, config = cluster_inputs(spec)
    simulator = ClusterSimulator(fleet, config)
    source = arrival_source
    if source is None and use_source:
        stanza = spec["source"] or {"kind": "none"}
        kind = stanza.get("kind", "none")
        if kind == "poisson":
            source = PoissonArrivalSource(
                fleet, seed=int(stanza.get("seed", 1))
            )
        elif kind == "trace":
            source = TraceArrivalSource(
                generate_arrivals(
                    fleet,
                    float(stanza["duration_us"]),
                    seed=int(stanza.get("seed", 1)),
                )
            )
        elif kind in ("none", "external"):
            source = None
        else:
            raise ServiceError(f"unknown arrival source kind {kind!r}")
    fault_plan = (
        FaultPlan.from_dict(spec["fault_plan"])
        if spec["fault_plan"]
        else None
    )
    # ``"slo": {}`` means "defaults"; only ``None`` disables the
    # monitor (so journal replays rebuild exactly the spec's monitor).
    slo = (
        SloMonitor.from_dict(spec["slo"])
        if spec["slo"] is not None
        else None
    )
    if journal is not None:
        journal.write_header(spec)
    return ClusterService(
        simulator,
        arrival_source=source,
        sampler_interval_us=spec["sampler_interval_us"],
        fault_plan=fault_plan,
        journal=journal,
        tracer=tracer,
        causal=causal,
        slo=slo,
        flight=flight,
    )


# -- journal replay ----------------------------------------------------


@dataclass
class ReplayOutcome:
    """Result of re-executing a journal's command stream."""

    spec: Dict[str, Any]
    entries: int = 0
    #: The first diverging digest component of each entry that
    #: diverged: ``{"seq", "field", "expected", "actual"}``.
    mismatches: List[Dict[str, Any]] = field(default_factory=list)
    #: The digest each entry reproduced, in journal order.
    digests: List[Dict[str, Any]] = field(default_factory=list)
    service: Optional[ClusterService] = None

    @property
    def ok(self) -> bool:
        return not self.mismatches


def replay_journal(path) -> ReplayOutcome:
    """Rebuild the service a journal describes and re-execute its
    command stream, comparing every recorded digest against the
    freshly computed one with :func:`first_mismatch`. An empty
    ``mismatches`` list is the bit-identity verdict."""
    spec, entries = read_journal(path)
    service = build_service(spec, use_source=False)
    outcome = ReplayOutcome(spec=spec, service=service)
    for entry in entries:
        outcome.entries += 1
        actual = service.execute_entry(entry)["digest"]
        outcome.digests.append(actual)
        mismatch = first_mismatch(entry.get("digest", {}), actual)
        if mismatch is not None:
            outcome.mismatches.append({"seq": entry.get("seq"), **mismatch})
    return outcome
