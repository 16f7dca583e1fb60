"""The cluster plane's one event record.

A restore's span tree (:func:`repro.metrics.tracing.phase_spans`)
shows where one attempt's time goes, and its depth-first flattening
becomes the attempt's ``phase`` records. A cluster invocation is a
*story*: routed, placed, admitted, maybe retried on another host
(``attempt=N``), maybe hedged (with a winner and cancelled losers),
maybe caught in a host crash and redispatched. Each step is one
:class:`TraceEvent` carrying its ``inv_id``; host-level events
(faults, drains, cache drops, SLO alerts, durability actions) are
records with ``inv_id=None``. The causal document
(:class:`CausalTracer`) is the view of the records with an
``inv_id``; flight rings (:mod:`repro.metrics.flight`) and the
durability stream (:func:`repro.faults.durability.durability_stream`)
are views of the same records.

The design is constrained by two contracts the cluster plane already
pins with exact checksums:

* **Zero perturbation** — recording must not create simulation
  events, draw from any RNG, or change event ordering. Every API
  here is plain-Python bookkeeping on the side of the heap.
* **Shard invariance** — ``shards=1`` and ``shards=N`` must produce
  a *byte-identical* merged document. Events therefore carry a
  ``(src, seq)`` origin stamp: ``src`` is the emitting component
  (host index, or ``-1`` for the router/scheduler) and ``seq`` is a
  per-source monotone counter. Host-side events are functions of
  that host's own event history (shard-invariant by the existing
  sharding contract); router-side events are functions of the
  barrier digests. Sorting each invocation's events by
  ``(t_us, src, seq)`` then yields the same byte stream no matter
  how hosts were packed into worker processes.

Wire safety: :class:`TraceEvent` is a frozen dataclass of scalars
(detail is a sorted tuple of key/value pairs), so shard workers can
ship drained event batches through their result pipes unchanged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

CAUSAL_SCHEMA = "repro.causal-trace/2"

#: ``src`` stamp for events emitted by the router / single-heap
#: scheduler rather than by a host.
ROUTER_SRC = -1

_SCALARS = (str, int, float, bool, type(None))


def _canon_value(value: Any) -> Any:
    """Normalize a detail value to a hashable, picklable scalar (or
    tuple of scalars)."""
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, (list, tuple)):
        return tuple(_canon_value(v) for v in value)
    raise TypeError(
        f"trace event detail must be scalar, got {type(value).__name__}"
    )


@dataclass(frozen=True)
class TraceEvent:
    """One cluster-plane event: a step of an invocation's story, or a
    host-level event (``inv_id=None``).

    ``detail`` is a key-sorted tuple of ``(key, value)`` pairs so the
    event is hashable, picklable, and canonical — two emitters
    passing the same kwargs produce equal events.
    """

    inv_id: Optional[int]
    t_us: float
    src: int
    seq: int
    kind: str
    detail: Tuple[Tuple[str, Any], ...] = ()

    def to_dict(self) -> dict:
        def jsonify(v):
            return list(v) if isinstance(v, tuple) else v

        return {
            "t_us": self.t_us,
            "src": self.src,
            "seq": self.seq,
            "kind": self.kind,
            "detail": {k: jsonify(v) for k, v in self.detail},
        }


class CausalRecorder:
    """Per-source event emitter with a monotone sequence counter.

    Each emitting component (one per host, one for the router) owns a
    recorder; the ``(src, seq)`` stamp it assigns makes the merged
    ordering independent of how emitters were packed into processes.
    Shard workers :meth:`drain` their recorder into every barrier
    digest; recorders created through :meth:`CausalTracer.recorder`
    feed the tracer directly and are never drained.
    """

    def __init__(self, src: int):
        self.src = src
        self.events: List[TraceEvent] = []
        self._seq = 0

    # Positional-only markers keep detail keys like ``kind=`` from
    # colliding with the event's own fields.
    def emit(
        self, inv_id: Optional[int], t_us: float, kind: str, /, **detail: Any
    ) -> None:
        pairs = tuple(
            (key, _canon_value(value)) for key, value in sorted(detail.items())
        )
        self.events.append(
            TraceEvent(
                inv_id=inv_id,
                t_us=t_us,
                src=self.src,
                seq=self._seq,
                kind=kind,
                detail=pairs,
            )
        )
        self._seq += 1

    def drain(self) -> Tuple[TraceEvent, ...]:
        """Return and clear buffered events (sequence keeps counting)."""
        out = tuple(self.events)
        self.events.clear()
        return out


class TraceContext:
    """An invocation's handle into the causal log.

    Created at dispatch and threaded through serving, admission,
    attempts, retries, and hedges; every layer that touches the
    invocation emits through the same context, so the story reads in
    one place. ``recorder`` is ``None`` when only a flight recorder
    shows the invocation's events.
    """

    __slots__ = ("recorder", "inv_id")

    def __init__(self, recorder: Optional[CausalRecorder], inv_id: int):
        self.recorder = recorder
        self.inv_id = inv_id

    def emit(self, t_us: float, kind: str, /, **detail: Any) -> None:
        self.recorder.emit(self.inv_id, t_us, kind, **detail)


class CausalTracer:
    """Assembles per-source event streams into one canonical document.

    The run driver (CLI, service, benchmark) owns one tracer; it
    registers invocations as they are routed, collects host events
    (directly via :meth:`recorder` views in single-heap mode, or via
    :meth:`extend` from shard digests), and renders the merged
    document with :meth:`document` / :meth:`to_json`.
    """

    def __init__(self) -> None:
        self._invocations: Dict[int, Tuple[str, float]] = {}
        self._events: List[TraceEvent] = []
        self._recorders: List[CausalRecorder] = []

    def recorder(self, src: int) -> CausalRecorder:
        """A recorder whose events feed this tracer without draining."""
        rec = CausalRecorder(src)
        self._recorders.append(rec)
        return rec

    def register(self, inv_id: int, function: str, arrival_us: float) -> None:
        self._invocations[inv_id] = (function, arrival_us)

    def extend(self, events: Iterable[TraceEvent]) -> None:
        """Fold in events shipped from another process (shard digests)."""
        self._events.extend(events)

    def all_events(self) -> List[TraceEvent]:
        events = list(self._events)
        for rec in self._recorders:
            events.extend(rec.events)
        return events

    def document(self) -> dict:
        """The merged causal trace: invocations sorted by id, each
        invocation's events sorted by ``(t_us, src, seq)``. Host-level
        events (``inv_id=None``) belong to no invocation and are left
        out.

        Both sort keys are pure functions of per-source event
        histories, so the document is byte-identical across shard
        counts once serialized canonically.
        """
        per_inv: Dict[int, List[TraceEvent]] = {
            inv_id: [] for inv_id in self._invocations
        }
        for event in self.all_events():
            if event.inv_id is not None:
                per_inv.setdefault(event.inv_id, []).append(event)
        invocations = []
        for inv_id in sorted(per_inv):
            function, arrival_us = self._invocations.get(inv_id, ("?", None))
            events = sorted(
                per_inv[inv_id], key=lambda e: (e.t_us, e.src, e.seq)
            )
            invocations.append(
                {
                    "inv_id": inv_id,
                    "function": function,
                    "arrival_us": arrival_us,
                    "events": [e.to_dict() for e in events],
                }
            )
        return {"schema": CAUSAL_SCHEMA, "invocations": invocations}

    def to_json(self) -> str:
        return json.dumps(self.document(), indent=2, sort_keys=True)


def invocation_kinds(doc: dict, inv_id: int) -> List[str]:
    """Event kinds of one invocation, in causal order (test helper)."""
    for inv in doc["invocations"]:
        if inv["inv_id"] == inv_id:
            return [e["kind"] for e in inv["events"]]
    raise KeyError(f"invocation {inv_id} not in trace document")


def find_invocations(doc: dict, *kinds: str) -> List[int]:
    """Invocation ids whose event stream contains every ``kind``."""
    out = []
    for inv in doc["invocations"]:
        have = {e["kind"] for e in inv["events"]}
        if all(k in have for k in kinds):
            out.append(inv["inv_id"])
    return out


def render_invocation(doc: dict, inv_id: int) -> str:
    """Human-readable rendering of one invocation's causal story."""
    for inv in doc["invocations"]:
        if inv["inv_id"] == inv_id:
            lines = [
                f"inv {inv_id} function={inv['function']} "
                f"arrival={inv['arrival_us']}"
            ]
            for e in inv["events"]:
                detail = " ".join(
                    f"{k}={v}" for k, v in sorted(e["detail"].items())
                )
                src = "router" if e["src"] == ROUTER_SRC else f"host{e['src']}"
                lines.append(
                    f"  {e['t_us'] / 1000:10.3f} ms  [{src}] "
                    f"{e['kind']}{(' ' + detail) if detail else ''}"
                )
            return "\n".join(lines)
    raise KeyError(f"invocation {inv_id} not in trace document")
