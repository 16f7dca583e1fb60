"""A failure flight recorder for the cluster plane.

Keeps a bounded ring per host of the latest cluster-plane records
(:class:`~repro.metrics.causal.TraceEvent`) that name that host's
ring, and snapshots those rings into a postmortem document whenever
something goes wrong — an invocation fails, a host crashes, a replica
is quarantined, or an SLO burn-rate alert fires. The point is the
same as an aircraft flight recorder: when the failure is noticed, the
interesting events are the ones *just before* it, and full tracing of
a long run is too heavy to keep around on the off-chance.

A ring is a view, not a second recorder: the scheduler's one emit
call stamps each record once and shows it here as a flat entry —
``t_us`` (to the nanosecond), ``kind``, ``inv_id`` for an
invocation's event, and the record's detail. Recording is pure-Python
deque appends — no simulation events, no RNG — so an attached
recorder keeps the cluster latency checksum bit-identical
(zero-perturbation contract). The recorder is a single-heap /
service-plane instrument: shard workers do not carry one (rings
would have to cross the result pipes every barrier), which mirrors
the existing ``--trace-out`` scoping.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Dict, List, Optional

FLIGHT_SCHEMA = "repro.flight-recorder/2"

#: Ring key for events not attributable to a single host (routing,
#: SLO alerts, budget exhaustion).
CLUSTER_RING = "cluster"


class FlightRecorder:
    """Per-host bounded event rings plus triggered postmortem dumps.

    ``capacity_per_host`` bounds each ring; ``max_postmortems``
    bounds how many full dumps are retained (the *first* N — during
    a failure storm the earliest dumps describe the onset, the rest
    repeat it). Every trigger past the cap still counts in
    ``dump_triggers``.
    """

    def __init__(
        self, capacity_per_host: int = 256, max_postmortems: int = 16
    ):
        if capacity_per_host < 1:
            raise ValueError("capacity_per_host must be >= 1")
        if max_postmortems < 1:
            raise ValueError("max_postmortems must be >= 1")
        self.capacity_per_host = capacity_per_host
        self.max_postmortems = max_postmortems
        self._rings: Dict[str, deque] = {}
        self.postmortems: List[dict] = []
        self.recorded = 0
        self.dump_triggers = 0

    def _ring(self, host: str) -> deque:
        ring = self._rings.get(host)
        if ring is None:
            ring = deque(maxlen=self.capacity_per_host)
            self._rings[host] = ring
        return ring

    def record(
        self, t_us: float, host: str, kind: str, /, **detail: Any
    ) -> None:
        """Append one event to ``host``'s ring (oldest falls out).

        The entry's own ``t_us`` and ``kind`` win over a detail key of
        the same name (the outcome record's start ``kind`` stays in
        the causal document)."""
        self.recorded += 1
        entry = dict(detail)
        entry["t_us"] = round(t_us, 3)
        entry["kind"] = kind
        self._ring(host).append(entry)

    def dump(self, t_us: float, reason: str, **context: Any) -> Optional[dict]:
        """Snapshot every ring into a postmortem.

        ``context`` carries whatever the trigger site knows (the
        failing invocation, the crashed host, the fired alert, SLO
        and health status). Returns the postmortem, or None when the
        retention cap already swallowed it.
        """
        self.dump_triggers += 1
        if len(self.postmortems) >= self.max_postmortems:
            return None
        postmortem = {
            "t_us": round(t_us, 3),
            "reason": reason,
            "context": context,
            "rings": {
                host: list(ring)
                for host, ring in sorted(self._rings.items())
            },
        }
        self.postmortems.append(postmortem)
        return postmortem

    def document(self) -> dict:
        """The full recorder state as a JSON-ready document."""
        return {
            "schema": FLIGHT_SCHEMA,
            "capacity_per_host": self.capacity_per_host,
            "recorded": self.recorded,
            "dump_triggers": self.dump_triggers,
            "postmortems_retained": len(self.postmortems),
            "rings": {
                host: list(ring)
                for host, ring in sorted(self._rings.items())
            },
            "postmortems": list(self.postmortems),
        }

    def to_json(self) -> str:
        return json.dumps(self.document(), indent=2, sort_keys=True)


def render_postmortem(postmortem: dict) -> str:
    """Readable rendering of one postmortem (docs/debug helper)."""
    lines = [
        f"postmortem @ {postmortem['t_us'] / 1000:.3f} ms — "
        f"{postmortem['reason']}"
    ]
    for key, value in sorted(postmortem.get("context", {}).items()):
        lines.append(f"  {key}: {value}")
    for host, ring in postmortem.get("rings", {}).items():
        lines.append(f"  [{host}] last {len(ring)} events:")
        for event in ring:
            detail = " ".join(
                f"{k}={v}"
                for k, v in sorted(event.items())
                if k not in ("t_us", "kind")
            )
            lines.append(
                f"    {event['t_us'] / 1000:10.3f} ms  {event['kind']}"
                f"{(' ' + detail) if detail else ''}"
            )
    return "\n".join(lines)
