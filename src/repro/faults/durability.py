"""Snapshot durability: checksummed replicas, repair, and scrubbing.

FaaSnap's latency win assumes the snapshot artefacts it restores from
are *correct*; a rotting snapshot tier silently turns warm restores
into wrong-memory serves. This module models the durability plane a
production snapshot store needs:

* **Integrity** — every published snapshot carries per-chunk
  checksums (:meth:`repro.storage.filestore.StoredFile.chunk_checksums`
  over page content tokens). The restore path verifies the chosen
  replica's stored checksums against the golden set *at read time*,
  so corruption is detected deterministically on the restore path —
  not via the injector's side-channel mark.
* **Replication + repair** — each ``(host, function)`` snapshot has
  ``R`` replicas. A detected-bad replica is quarantined (never
  re-read) and the escalation chain runs: fail over to the next
  healthy replica, re-replicate the bad one in the background (under
  the cluster :class:`~repro.faults.recovery.RetryBudget`, so repair
  traffic cannot starve serving retries), and — when *every* replica
  is bad — rebuild from scratch via a cold boot, which prices the
  loss against the cold-start lower bound.
* **Scrubbing** — a seeded background scrubber walks each host's
  replicas during idle windows and repairs bit-rot before any
  invocation sees it. Scrubber-found and restore-found detections
  are counted separately.

Everything is deterministic: corruption targets replicas and chunks
by a per-snapshot counter (no RNG). Scrub, quarantine, repair and
rebuild events are records of the cluster plane's one event stream
(:class:`~repro.metrics.causal.TraceEvent`, serving-relative clock);
:func:`durability_stream` renders them, byte-identical for the
single-heap scheduler and every shard count.

With :data:`DISABLED_DURABILITY` (the default policy) the manager is
never constructed and the cluster run is bit-identical to one
predating this module — the perf harness gates this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.sim import Environment, Event, Interrupt

#: Replica states. ``healthy`` replicas may serve restores;
#: ``quarantined`` replicas are never re-read until repaired.
HEALTHY = "healthy"
QUARANTINED = "quarantined"

#: ``verify_restore`` outcomes.
VERIFY_OK = "ok"
VERIFY_CORRUPT = "corrupt"  # detected at read time -> quarantine
VERIFY_SILENT = "silent"  # verification off: wrong memory served
VERIFY_UNTRACKED = "untracked"  # no checksums known for the artefacts

#: Kind prefix of the durability plane's records in the event stream.
EVENT_PREFIX = "durability."


@dataclass(frozen=True)
class DurabilityPolicy:
    """Knobs for the snapshot durability plane.

    The default (``enabled=False``) keeps the plane entirely out of
    the run. ``verify_restores=False`` with ``enabled=True`` models a
    store that replicates and scrubs but does not checksum on the
    read path — corrupted restores then complete as silent
    wrong-memory serves, which the ``bitrot-storm`` drill's
    ``--min-detection`` gate exists to catch.
    """

    enabled: bool = False
    #: Replicas per published snapshot.
    replicas: int = 2
    #: Verify the chosen replica's checksums on every restore.
    verify_restores: bool = True
    #: Pages per checksum chunk.
    chunk_pages: int = 64
    #: Scrubber wake interval (``None`` = no background scrubbing).
    scrub_interval_us: Optional[float] = None
    #: Virtual time to re-replicate one chunk during repair.
    repair_us_per_chunk: float = 50.0
    #: Pause before re-asking the retry budget after a denied repair.
    repair_retry_us: float = 500_000.0

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.chunk_pages < 1:
            raise ValueError("chunk_pages must be >= 1")
        if self.scrub_interval_us is not None and self.scrub_interval_us <= 0:
            raise ValueError("scrub_interval_us must be positive (or None)")
        if self.repair_us_per_chunk < 0:
            raise ValueError("repair_us_per_chunk must be >= 0")
        if self.repair_retry_us <= 0:
            raise ValueError("repair_retry_us must be positive")

    def as_dict(self) -> Dict[str, object]:
        return {
            "enabled": self.enabled,
            "replicas": self.replicas,
            "verify_restores": self.verify_restores,
            "chunk_pages": self.chunk_pages,
            "scrub_interval_us": self.scrub_interval_us,
            "repair_us_per_chunk": self.repair_us_per_chunk,
            "repair_retry_us": self.repair_retry_us,
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "DurabilityPolicy":
        return cls(**doc)


#: The do-nothing policy: durability plane off, zero perturbation.
DISABLED_DURABILITY = DurabilityPolicy()


@dataclass
class Replica:
    """One stored copy of a snapshot's artefacts."""

    index: int
    #: Checksums the artefacts were published with (ground truth).
    golden: Tuple[int, ...]
    #: Checksums of what is on disk now (diverges under bit-rot).
    stored: List[int]
    state: str = HEALTHY

    @property
    def intact(self) -> bool:
        return tuple(self.stored) == self.golden


@dataclass
class ReplicaSet:
    """All replicas of one ``(host, function)`` snapshot."""

    host: str
    function: str
    replicas: List[Replica]
    #: Per-set corruption counter driving deterministic targeting.
    corrupt_seq: int = 0

    @property
    def readable(self) -> bool:
        return any(r.state == HEALTHY for r in self.replicas)

    @property
    def rebuilding(self) -> bool:
        """Every replica bad: the snapshot must be rebuilt from
        scratch (the restore path falls back to a cold boot)."""
        return not self.readable

    def pick(self) -> Optional[Replica]:
        """The replica a restore reads: first healthy in index
        order (deterministic, quarantine-aware placement)."""
        for replica in self.replicas:
            if replica.state == HEALTHY:
                return replica
        return None


class DurabilityManager:
    """Owns every replica set of one cluster run (or of one shard's
    host in sharded execution — the plane is per-host state, so the
    split is exact).

    ``checksum_fn(host_id, function)`` returns the golden per-chunk
    checksums of that snapshot's artefacts, or ``None`` when no
    artefacts exist yet (replica sets are created lazily on first
    touch). ``budget_fn()`` returns the run's
    :class:`~repro.faults.recovery.RetryBudget` (or ``None``); repair
    traffic spends from it. ``observer(host, kind, **detail)`` is the
    cluster plane's emit call (the injector's takes the same): every
    scrub/quarantine/repair/rebuild event goes through it once, with
    ``kind`` prefixed :data:`EVENT_PREFIX`.
    """

    def __init__(
        self,
        env: Environment,
        policy: DurabilityPolicy,
        checksum_fn: Callable[[str, str], Optional[Tuple[int, ...]]],
        budget_fn: Optional[Callable[[], Any]] = None,
        observer: Optional[Any] = None,
    ):
        self.env = env
        self.policy = policy
        self.checksum_fn = checksum_fn
        self.budget_fn = budget_fn
        self.observer = observer
        self._sets: Dict[Tuple[str, str], ReplicaSet] = {}
        #: Corruption marks that arrived before the snapshot existed,
        #: applied when the replica set is first materialised.
        self._pending_corruptions: Dict[Tuple[str, str], int] = {}
        self._procs: List[Any] = []
        # Counters (plain ints; exported as pull counters).
        self.corruptions_applied = 0
        self.detected_restore = 0
        self.detected_scrub = 0
        self.silent_corrupt_serves = 0
        self.quarantines = 0
        self.repairs = 0
        self.repairs_deferred = 0
        self.rebuilds = 0
        self.scrub_cycles = 0
        self._register_metrics()

    # -- bookkeeping ---------------------------------------------------

    def _register_metrics(self) -> None:
        registry = getattr(self.env, "metrics", None)
        if registry is None:
            return
        prefix = registry.unique_prefix("durability")
        for name in (
            "corruptions_applied",
            "detected_restore",
            "detected_scrub",
            "silent_corrupt_serves",
            "quarantines",
            "repairs",
            "repairs_deferred",
            "rebuilds",
            "scrub_cycles",
        ):
            registry.pull_counter(
                f"{prefix}.{name}",
                (lambda n=name: getattr(self, n)),
            )
        registry.gauge(
            f"{prefix}.quarantined_replicas",
            lambda: sum(
                1
                for rs in self._sets.values()
                for r in rs.replicas
                if r.state == QUARANTINED
            ),
        )

    def _emit(self, kind: str, host: str, **detail: Any) -> None:
        if self.observer is not None:
            self.observer(host, EVENT_PREFIX + kind, **detail)

    # -- replica-set lifecycle -----------------------------------------

    def ensure(self, host_id: str, function: str) -> Optional[ReplicaSet]:
        """The replica set for ``(host_id, function)``, materialising
        it from the artefacts' checksums on first touch. ``None`` when
        no artefacts exist yet."""
        key = (host_id, function)
        rs = self._sets.get(key)
        if rs is not None:
            return rs
        golden = self.checksum_fn(host_id, function)
        if not golden:
            return None
        golden = tuple(golden)
        rs = ReplicaSet(
            host=host_id,
            function=function,
            replicas=[
                Replica(index=i, golden=golden, stored=list(golden))
                for i in range(self.policy.replicas)
            ],
        )
        self._sets[key] = rs
        pending = self._pending_corruptions.pop(key, 0)
        for _ in range(pending):
            self._apply_corruption(rs)
        return rs

    def publish(self, host_id: str, function: str) -> None:
        """Called when the scheduler (re)records artefacts for
        ``function`` on ``host_id``.

        * No replica set yet → create one silently.
        * Fully-unreadable set → this publish *is* the
          rebuild-from-scratch completing (the cold boot already paid
          the gap-to-bound); reset every replica to the fresh golden
          checksums.
        * Partially-quarantined set → untouched: publish must never
          silently heal a quarantined replica, background repair is
          the only healing path.
        """
        rs = self.ensure(host_id, function)
        if rs is None or rs.readable:
            return
        golden = self.checksum_fn(host_id, function)
        if not golden:
            return
        golden = tuple(golden)
        for replica in rs.replicas:
            replica.golden = golden
            replica.stored = list(golden)
            replica.state = HEALTHY
        self.rebuilds += 1
        self._emit(
            "rebuild",
            host_id,
            function=function,
            replicas=len(rs.replicas),
        )

    # -- corruption ----------------------------------------------------

    def mark_corrupt(self, host_id: str, function: str) -> None:
        """Injector entry point: one corruption event lands on
        ``(host_id, function)``. Target replica and chunk follow the
        per-set corruption counter — no RNG, so shard-invariant."""
        rs = self.ensure(host_id, function)
        if rs is None:
            key = (host_id, function)
            self._pending_corruptions[key] = (
                self._pending_corruptions.get(key, 0) + 1
            )
            return
        self._apply_corruption(rs)

    def _apply_corruption(self, rs: ReplicaSet) -> None:
        replica = rs.replicas[rs.corrupt_seq % len(rs.replicas)]
        if replica.stored:
            chunk = rs.corrupt_seq % len(replica.stored)
            replica.stored[chunk] ^= 0x5A5A5A5A
        rs.corrupt_seq += 1
        self.corruptions_applied += 1

    # -- restore path --------------------------------------------------

    def has_readable(self, host_id: str, function: str) -> bool:
        """Replica-aware warm check: False when every replica is
        quarantined (the caller must fall back to a cold boot — the
        rebuild-from-scratch leg of the escalation chain)."""
        rs = self.ensure(host_id, function)
        if rs is None:
            return True
        return rs.readable

    def verify_restore(self, host_id: str, function: str) -> str:
        """Verify the replica a restore is about to read.

        Returns :data:`VERIFY_OK`, :data:`VERIFY_CORRUPT` (detected —
        the replica is quarantined, background repair starts, and the
        caller must fail the attempt so recovery fails over),
        :data:`VERIFY_SILENT` (verification off and the artefacts are
        bad: the serve proceeds with wrong memory), or
        :data:`VERIFY_UNTRACKED` (no checksums known)."""
        rs = self.ensure(host_id, function)
        if rs is None:
            return VERIFY_UNTRACKED
        replica = rs.pick()
        if replica is None:
            # ``has_readable`` should have routed this to a cold
            # boot; treat as untracked rather than crash the serve.
            return VERIFY_UNTRACKED
        if replica.intact:
            return VERIFY_OK
        if not self.policy.verify_restores:
            self.silent_corrupt_serves += 1
            return VERIFY_SILENT
        self.detected_restore += 1
        self._quarantine(rs, replica, found="restore")
        return VERIFY_CORRUPT

    # -- quarantine + repair -------------------------------------------

    def _quarantine(
        self, rs: ReplicaSet, replica: Replica, found: str
    ) -> None:
        replica.state = QUARANTINED
        self.quarantines += 1
        self._emit(
            "quarantine",
            rs.host,
            function=rs.function,
            replica=replica.index,
            found=found,
            readable=sum(
                1 for r in rs.replicas if r.state == HEALTHY
            ),
        )
        self._procs.append(
            self.env.process(
                self._repair(rs, replica),
                name=f"durability.repair.{rs.host}.{rs.function}",
            )
        )

    def _repair(
        self, rs: ReplicaSet, replica: Replica
    ) -> Generator[Event, Any, None]:
        """Background re-replication of one quarantined replica,
        gated on the cluster retry budget so repair traffic cannot
        starve serving retries."""
        try:
            budget = self.budget_fn() if self.budget_fn else None
            while budget is not None and not budget.try_spend():
                self.repairs_deferred += 1
                yield self.env.timeout(self.policy.repair_retry_us)
            yield self.env.timeout(
                self.policy.repair_us_per_chunk * len(replica.golden)
            )
        except Interrupt:
            return
        if replica.state != QUARANTINED:
            return  # a rebuild already reset this replica
        replica.stored = list(replica.golden)
        replica.state = HEALTHY
        self.repairs += 1
        self._emit(
            "repair",
            rs.host,
            function=rs.function,
            replica=replica.index,
        )

    # -- scrubbing -----------------------------------------------------

    def start_scrubber(self, host_id: str) -> Optional[Any]:
        """Spawn the periodic scrub process for one host's replicas
        (no-op without ``scrub_interval_us``)."""
        if self.policy.scrub_interval_us is None:
            return None
        proc = self.env.process(
            self._scrub_loop(host_id), name=f"durability.scrub.{host_id}"
        )
        self._procs.append(proc)
        return proc

    def _scrub_loop(self, host_id: str) -> Generator[Event, Any, None]:
        try:
            while True:
                yield self.env.timeout(self.policy.scrub_interval_us)
                self.scrub_host(host_id)
        except Interrupt:
            return

    def scrub_host(self, host_id: str) -> Dict[str, int]:
        """One scrub sweep over ``host_id``'s replicas: quarantine
        every healthy-but-rotten replica and queue its repair."""
        self.scrub_cycles += 1
        checked = found = 0
        for key in sorted(self._sets):
            if key[0] != host_id:
                continue
            rs = self._sets[key]
            for replica in rs.replicas:
                if replica.state != HEALTHY:
                    continue
                checked += 1
                if not replica.intact:
                    found += 1
                    self.detected_scrub += 1
                    self._quarantine(rs, replica, found="scrub")
        return {"checked": checked, "found": found}

    def scrub_now(self) -> Dict[str, int]:
        """Operator-forced sweep over every host (the ``scrub``
        service command). Detection is immediate; repairs run in the
        background as usual."""
        hosts = sorted({key[0] for key in self._sets})
        checked = found = 0
        for host_id in hosts:
            result = self.scrub_host(host_id)
            checked += result["checked"]
            found += result["found"]
        return {
            "hosts": len(hosts),
            "checked": checked,
            "found": found,
        }

    def stop(self) -> None:
        """Interrupt in-flight scrub/repair processes (end of the
        serving epoch). Interrupted repairs leave their replica
        quarantined — deterministic, since the stop time is."""
        for proc in self._procs:
            if proc.is_alive:
                proc.interrupt("durability plane stopped")
        self._procs.clear()

    # -- reporting -----------------------------------------------------

    def readable_functions(self, host_id: str) -> List[str]:
        """Functions with at least one readable replica on
        ``host_id`` (sharded workers export this so the router's
        placement view is quarantine-aware)."""
        return sorted(
            key[1]
            for key, rs in self._sets.items()
            if key[0] == host_id and rs.readable
        )

    def status(self) -> Dict[str, Any]:
        """Canonical point-in-time durability document (the
        ``durability-status`` service command)."""
        sets = []
        for key in sorted(self._sets):
            rs = self._sets[key]
            sets.append(
                {
                    "host": rs.host,
                    "function": rs.function,
                    "replicas": [r.state for r in rs.replicas],
                    "readable": rs.readable,
                    "rebuilding": rs.rebuilding,
                }
            )
        return {
            "policy": self.policy.as_dict(),
            "counters": self.summary(),
            "replica_sets": sets,
        }

    def summary(self) -> Dict[str, int]:
        return {
            "corruptions_applied": self.corruptions_applied,
            "detected_restore": self.detected_restore,
            "detected_scrub": self.detected_scrub,
            "silent_corrupt_serves": self.silent_corrupt_serves,
            "quarantines": self.quarantines,
            "repairs": self.repairs,
            "repairs_deferred": self.repairs_deferred,
            "rebuilds": self.rebuilds,
            "scrub_cycles": self.scrub_cycles,
        }


def durability_stream(records: Iterable[Any]) -> List[Dict[str, Any]]:
    """Render the :data:`EVENT_PREFIX` records among ``records`` (any
    :class:`~repro.metrics.causal.TraceEvent` iterable) as the
    durability event stream: ``{t_us, host, seq, kind, **detail}``
    dicts with ``t_us`` serving-relative to the nanosecond, ``seq``
    counting each host's durability events in emission order and
    ``kind`` unprefixed, sorted ``(t_us, host, seq)``. Each entry is a
    function of its host's own records only, so the stream is
    byte-identical for a single-heap run and every shard count."""
    counts: Dict[str, int] = {}
    stream = []
    mine = [r for r in records if r.kind.startswith(EVENT_PREFIX)]
    for record in sorted(mine, key=lambda r: (r.src, r.seq)):
        detail = dict(record.detail)
        host = detail.pop("host")
        seq = counts.get(host, 0)
        counts[host] = seq + 1
        stream.append(
            {
                "t_us": round(record.t_us, 3),
                "host": host,
                "seq": seq,
                "kind": record.kind[len(EVENT_PREFIX):],
                **detail,
            }
        )
    stream.sort(key=lambda e: (e["t_us"], e["host"], e["seq"]))
    return stream
