"""SLO monitoring with multi-window burn-rate alerts.

Evaluates latency and availability objectives over the *virtual*
clock: every served invocation is an SLI sample, rolling windows are
spans of simulated time, and an alert fires when the error-budget
burn rate exceeds a rule's factor in **both** a long and a short
window (the classic SRE fast-burn/slow-burn pair — the long window
gives confidence the burn is real, the short window makes the alert
reset quickly once the incident ends).

Burn rate is ``bad_fraction / (1 - target)``: 1.0 means the error
budget is being consumed exactly at the rate that exhausts it at the
objective horizon; 14.4 (the fast-rule default) means a 5-minute
window is burning budget 14.4x too fast.

Everything here is passive bookkeeping fed from the scheduler's
served stream — no simulation events, no RNG draws — so an enabled
monitor leaves the cluster latency checksum bit-identical (the
zero-perturbation contract). Alert *evaluation* happens inline at
each observation, which is what makes replay deterministic: the
journal records only the ``slo-status`` commands, and re-running the
same served stream reproduces the same alerts at the same virtual
times.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.metrics.exporters import canonical_sha256

SLO_SCHEMA = "repro.slo-status/1"


@dataclass(frozen=True)
class SloObjective:
    """One service-level objective.

    ``kind`` is ``"availability"`` (good = invocation did not fail or
    shed) or ``"latency"`` (good = succeeded within ``threshold_us``).
    ``target`` is the good-fraction objective, e.g. 0.999.
    """

    name: str
    kind: str
    target: float
    threshold_us: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in ("availability", "latency"):
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if not 0.0 < self.target < 1.0:
            raise ValueError("target must be in (0, 1)")
        if self.kind == "latency" and (
            self.threshold_us is None or self.threshold_us <= 0
        ):
            raise ValueError("latency objectives need a positive threshold")

    def good(self, latency_us: float, ok: bool) -> bool:
        if self.kind == "availability":
            return ok
        return ok and latency_us <= self.threshold_us

    def to_dict(self) -> dict:
        d: Dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "target": self.target,
        }
        if self.threshold_us is not None:
            d["threshold_ms"] = self.threshold_us / 1000.0
        return d


@dataclass(frozen=True)
class BurnRateRule:
    """A long/short window pair and the burn factor that trips it."""

    name: str
    long_us: float
    short_us: float
    factor: float

    def __post_init__(self) -> None:
        if self.short_us <= 0 or self.long_us < self.short_us:
            raise ValueError("need 0 < short window <= long window")
        if self.factor <= 0:
            raise ValueError("factor must be positive")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "long_window_ms": self.long_us / 1000.0,
            "short_window_ms": self.short_us / 1000.0,
            "factor": self.factor,
        }


#: The SRE-style default pair: a fast burn over a 5-minute window
#: (30 s confirmation) pages immediately; a slow burn over an hour
#: (5 min confirmation) catches budget leaks.
DEFAULT_RULES: Tuple[BurnRateRule, ...] = (
    BurnRateRule("fast", long_us=300e6, short_us=30e6, factor=14.4),
    BurnRateRule("slow", long_us=3_600e6, short_us=300e6, factor=6.0),
)

DEFAULT_OBJECTIVES: Tuple[SloObjective, ...] = (
    SloObjective("availability", "availability", target=0.999),
    SloObjective(
        "latency-500ms", "latency", target=0.99, threshold_us=500_000.0
    ),
)


class _Window:
    """Rolling good/bad counts over a span of virtual time."""

    __slots__ = ("span_us", "samples", "good", "total")

    def __init__(self, span_us: float):
        self.span_us = span_us
        self.samples: deque = deque()
        self.good = 0
        self.total = 0

    def add(self, t_us: float, good: bool) -> None:
        self.samples.append((t_us, good))
        self.total += 1
        if good:
            self.good += 1

    def advance(self, now_us: float) -> None:
        cutoff = now_us - self.span_us
        samples = self.samples
        while samples and samples[0][0] <= cutoff:
            _, was_good = samples.popleft()
            self.total -= 1
            if was_good:
                self.good -= 1

    def burn(self, target: float) -> float:
        if self.total == 0:
            return 0.0
        bad_fraction = (self.total - self.good) / self.total
        return bad_fraction / (1.0 - target)


class SloMonitor:
    """Feeds SLI samples into per-objective burn windows and raises
    deduplicated multi-window alerts.

    An alert is a rising edge: it fires when a rule's burn condition
    becomes true for an objective and re-arms only after the
    condition clears (the short window draining is what clears it —
    that's the hysteresis).
    """

    def __init__(
        self,
        objectives: Sequence[SloObjective] = DEFAULT_OBJECTIVES,
        rules: Sequence[BurnRateRule] = DEFAULT_RULES,
    ):
        if not objectives:
            raise ValueError("need at least one objective")
        if not rules:
            raise ValueError("need at least one burn-rate rule")
        self.objectives = tuple(objectives)
        self.rules = tuple(rules)
        # windows[obj_name][rule_name] = (long, short)
        self._windows: Dict[str, Dict[str, Tuple[_Window, _Window]]] = {
            o.name: {
                r.name: (_Window(r.long_us), _Window(r.short_us))
                for r in self.rules
            }
            for o in self.objectives
        }
        self._active: Dict[Tuple[str, str], bool] = {
            (o.name, r.name): False
            for o in self.objectives
            for r in self.rules
        }
        self.alerts: List[dict] = []
        self.observed = 0
        self.bad: Dict[str, int] = {o.name: 0 for o in self.objectives}

    # -- construction from wire config --------------------------------

    @classmethod
    def default(cls) -> "SloMonitor":
        return cls()

    @classmethod
    def from_dict(cls, config: Optional[dict]) -> "SloMonitor":
        """Build from the ``set-slo`` wire form (milliseconds)::

            {"objectives": [{"name": "avail", "kind": "availability",
                             "target": 0.999},
                            {"name": "lat", "kind": "latency",
                             "target": 0.99, "threshold_ms": 400}],
             "rules": [{"name": "fast", "long_window_ms": 300000,
                        "short_window_ms": 30000, "factor": 14.4}]}

        Omitted sections fall back to the defaults.
        """
        config = config or {}
        unknown = set(config) - {"objectives", "rules"}
        if unknown:
            raise ValueError(f"unknown slo config keys: {sorted(unknown)}")
        objectives: List[SloObjective] = []
        for entry in config.get("objectives", ()):
            threshold_ms = entry.get("threshold_ms")
            objectives.append(
                SloObjective(
                    name=entry["name"],
                    kind=entry["kind"],
                    target=float(entry["target"]),
                    threshold_us=(
                        float(threshold_ms) * 1000.0
                        if threshold_ms is not None
                        else None
                    ),
                )
            )
        rules: List[BurnRateRule] = []
        for entry in config.get("rules", ()):
            rules.append(
                BurnRateRule(
                    name=entry["name"],
                    long_us=float(entry["long_window_ms"]) * 1000.0,
                    short_us=float(entry["short_window_ms"]) * 1000.0,
                    factor=float(entry["factor"]),
                )
            )
        return cls(
            objectives=objectives or DEFAULT_OBJECTIVES,
            rules=rules or DEFAULT_RULES,
        )

    def config_dict(self) -> dict:
        return {
            "objectives": [o.to_dict() for o in self.objectives],
            "rules": [r.to_dict() for r in self.rules],
        }

    # -- the SLI feed --------------------------------------------------

    def observe(
        self, t_us: float, latency_us: float, ok: bool
    ) -> List[dict]:
        """Record one served invocation; returns newly fired alerts."""
        self.observed += 1
        fired: List[dict] = []
        for objective in self.objectives:
            good = objective.good(latency_us, ok)
            if not good:
                self.bad[objective.name] += 1
            for rule in self.rules:
                long_w, short_w = self._windows[objective.name][rule.name]
                for window in (long_w, short_w):
                    window.add(t_us, good)
                    window.advance(t_us)
                burn_long = long_w.burn(objective.target)
                burn_short = short_w.burn(objective.target)
                firing = (
                    burn_long >= rule.factor and burn_short >= rule.factor
                )
                key = (objective.name, rule.name)
                if firing and not self._active[key]:
                    alert = {
                        "t_us": round(t_us, 3),
                        "objective": objective.name,
                        "rule": rule.name,
                        "factor": rule.factor,
                        "burn_long": round(burn_long, 4),
                        "burn_short": round(burn_short, 4),
                    }
                    self.alerts.append(alert)
                    fired.append(alert)
                self._active[key] = firing
        return fired

    # -- reporting ------------------------------------------------------

    def status(self, now_us: float) -> dict:
        """Canonical status document at virtual time ``now_us``."""
        objectives = []
        for objective in self.objectives:
            windows = []
            for rule in self.rules:
                long_w, short_w = self._windows[objective.name][rule.name]
                long_w.advance(now_us)
                short_w.advance(now_us)
                windows.append(
                    {
                        "rule": rule.name,
                        "factor": rule.factor,
                        "burn_long": round(
                            long_w.burn(objective.target), 4
                        ),
                        "burn_short": round(
                            short_w.burn(objective.target), 4
                        ),
                        "samples_long": long_w.total,
                        "active": self._active[
                            (objective.name, rule.name)
                        ],
                    }
                )
            doc = objective.to_dict()
            doc["bad"] = self.bad[objective.name]
            doc["windows"] = windows
            objectives.append(doc)
        return {
            "schema": SLO_SCHEMA,
            "t_us": round(now_us, 3),
            "observed": self.observed,
            "objectives": objectives,
            "alerts": list(self.alerts),
        }

    def status_sha(self, now_us: float) -> Tuple[dict, str]:
        doc = self.status(now_us)
        return doc, canonical_sha256(doc)


def render_slo_status(doc: dict) -> str:
    """Readable rendering of a :meth:`SloMonitor.status` document."""
    lines = [
        f"SLO status @ {doc['t_us'] / 1000:.3f} ms — "
        f"{doc['observed']} observation(s), "
        f"{len(doc['alerts'])} alert(s)"
    ]
    for objective in doc["objectives"]:
        target = objective["target"]
        threshold = objective.get("threshold_ms")
        head = (
            f"  {objective['name']} ({objective['kind']}"
            f"{f' <= {threshold:g} ms' if threshold is not None else ''}"
            f", target {target}): bad={objective['bad']}"
        )
        lines.append(head)
        for window in objective["windows"]:
            state = "FIRING" if window["active"] else "ok"
            lines.append(
                f"    {window['rule']:<5} burn long={window['burn_long']:g} "
                f"short={window['burn_short']:g} "
                f"(trip at {window['factor']:g}) [{state}]"
            )
    for alert in doc["alerts"]:
        lines.append(
            f"  ALERT @ {alert['t_us'] / 1000:.3f} ms: "
            f"{alert['objective']}/{alert['rule']} "
            f"burn {alert['burn_long']:g}/{alert['burn_short']:g} "
            f">= {alert['factor']:g}"
        )
    return "\n".join(lines)
