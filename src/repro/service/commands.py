"""Typed, serialisable commands for the cluster service.

Each command is a frozen dataclass with a stable wire form
(``to_dict`` / :func:`command_from_dict`) used by the journal, and a
one-line text form (:func:`parse_command`) used by ``repro serve``
scripts and the REPL. The two forms are interconvertible; the journal
always stores the dict form.

:data:`COMMANDS` declares every command once: its text syntax and
help line, its argument's wire key, the coercer that validates that
argument (run by the constructor, so every path into a command checks
it the same way), the parser of its text form, and whether it is
allowed after drain. The text grammar is one command per line; blank
lines and ``#`` comments are skipped by the CLI, whose REPL prints
:func:`command_help`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from repro.faults.plan import FaultPlan
from repro.metrics.slo import SloMonitor


class CommandError(ValueError):
    """A command line or document that cannot be parsed."""


@dataclass(frozen=True)
class Command:
    """Base class; subclasses set ``name`` and are declared in
    :data:`COMMANDS`."""

    name = "abstract"

    def __post_init__(self):
        spec = COMMANDS[self.name]
        if spec.key is None:
            return
        try:
            value = spec.coerce(getattr(self, spec.key))
        except CommandError as exc:
            raise CommandError(
                f"bad arguments for {self.name!r}: {exc}"
            ) from None
        object.__setattr__(self, spec.key, value)

    def to_dict(self) -> Dict[str, Any]:
        spec = COMMANDS[self.name]
        doc: Dict[str, Any] = {"cmd": self.name}
        if spec.key is not None:
            doc["args"] = {spec.key: spec.wire(getattr(self, spec.key))}
        return doc


@dataclass(frozen=True)
class AdvanceCommand(Command):
    """Advance virtual time by ``ms`` milliseconds, pulling arrivals
    from the service's source up to the new horizon."""

    ms: float = 0.0
    name = "advance"


@dataclass(frozen=True)
class InjectCommand(Command):
    """Enqueue explicit arrivals, each ``(epoch-relative time_us,
    function name)``. Times may be in the past (served immediately,
    queue delay counted into latency) or the future."""

    arrivals: Tuple[Tuple[float, str], ...] = ()
    name = "inject"

    @classmethod
    def from_arrivals(cls, arrivals) -> "InjectCommand":
        return cls(
            arrivals=tuple((a.time_us, a.function) for a in arrivals)
        )


@dataclass(frozen=True)
class AddHostCommand(Command):
    name = "add-host"


@dataclass(frozen=True)
class DrainHostCommand(Command):
    host: str = ""
    name = "drain-host"


@dataclass(frozen=True)
class UndrainHostCommand(Command):
    host: str = ""
    name = "undrain-host"


@dataclass(frozen=True)
class SwapPlacementCommand(Command):
    policy: str = ""
    name = "swap-placement"


@dataclass(frozen=True)
class ArmCommand(Command):
    """Arm a fault plan mid-run. ``plan`` is the
    :meth:`~repro.faults.plan.FaultPlan.as_dict` document; fault times
    are relative to the arming instant."""

    plan: Dict[str, Any] = field(default_factory=dict)
    name = "arm"

    # ``plan`` is a dict, so frozen-dataclass hashing is off the table;
    # commands are values, never dict keys.
    __hash__ = None  # type: ignore[assignment]


@dataclass(frozen=True)
class DisarmCommand(Command):
    name = "disarm"


@dataclass(frozen=True)
class SetKeepaliveCommand(Command):
    ttl_ms: float = 0.0
    name = "set-keepalive"


@dataclass(frozen=True)
class SnapshotTelemetryCommand(Command):
    name = "snapshot-telemetry"


@dataclass(frozen=True)
class SetSloCommand(Command):
    """Install (or replace) the run's SLO monitor. ``config`` is the
    :meth:`~repro.metrics.slo.SloMonitor.config_dict` wire form; an
    empty dict installs the default objectives and rules. Replacing
    the monitor resets its rolling windows — retuning mid-run starts
    the burn-rate evaluation fresh from the current instant."""

    config: Dict[str, Any] = field(default_factory=dict)
    name = "set-slo"

    # ``config`` is a dict, so frozen-dataclass hashing is off the
    # table; commands are values, never dict keys.
    __hash__ = None  # type: ignore[assignment]


@dataclass(frozen=True)
class SloStatusCommand(Command):
    """Evaluate the SLO monitor at the current virtual time and pin
    the resulting document's digest in the journal (replay must agree
    on every burn rate and alert)."""

    name = "slo-status"


@dataclass(frozen=True)
class ScrubCommand(Command):
    """Force a full scrub pass over every host's replica sets at the
    current virtual time — detection happens now, repair proceeds in
    virtual time afterwards. No-op when durability is disabled."""

    name = "scrub"


@dataclass(frozen=True)
class DurabilityStatusCommand(Command):
    """Report replica/corruption state and pin the resulting
    document's digest in the journal (replay must agree on every
    counter and quarantined replica)."""

    name = "durability-status"


@dataclass(frozen=True)
class StatusCommand(Command):
    name = "status"


@dataclass(frozen=True)
class DrainCommand(Command):
    name = "drain"


# -- argument coercers and text parsers --------------------------------


def _finite(value) -> float:
    try:
        finite = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        finite = False
    if not finite:
        raise CommandError(f"expected a finite number, got {value!r}")
    return value


def _duration(value) -> float:
    if _finite(value) < 0:
        raise CommandError(f"expected a duration >= 0, got {value!r}")
    return value


def _name(value) -> str:
    if not isinstance(value, str) or not value:
        raise CommandError(f"expected a non-empty name, got {value!r}")
    return value


def _arrivals(value) -> Tuple[Tuple[float, str], ...]:
    if not isinstance(value, (list, tuple)):
        raise CommandError(f"expected a list of arrivals, got {value!r}")
    arrivals = []
    for item in value:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise CommandError(
                f"an arrival is a [T_US, FN] pair, got {item!r}"
            )
        arrivals.append((_finite(item[0]), _name(item[1])))
    return tuple(arrivals)


def _document(loader: Callable[[Dict[str, Any]], Any]):
    """Coercer of a JSON-object argument that ``loader`` must accept."""

    def coerce(value) -> Dict[str, Any]:
        if not isinstance(value, dict):
            raise CommandError(f"expected a JSON object, got {value!r}")
        try:
            loader(value)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise CommandError(
                f"rejected by {loader.__qualname__}: {exc!r}"
            ) from None
        return dict(value)

    return coerce


def _arrival_tokens(text: str) -> List[List[Any]]:
    arrivals = []
    for token in text.split():
        time_text, sep, fn = token.partition(":")
        if not sep or not fn:
            raise CommandError(f"expected T_US:FN tokens, got {token!r}")
        arrivals.append([float(time_text), fn])
    if not arrivals:
        raise CommandError("expected at least one T_US:FN token")
    return arrivals


@dataclass(frozen=True)
class CommandSpec:
    """One command's row in :data:`COMMANDS`. ``key`` is the wire key
    of its one argument (also the dataclass field), ``coerce``
    validates that argument and ``parse`` reads it from the text
    form; ``wire`` writes it to the dict form. ``after_drain``
    commands still run on a drained service; ``starts_run`` commands
    finish the prep epoch before executing."""

    cls: Type[Command]
    syntax: str
    help: str
    key: Optional[str] = None
    coerce: Callable[[Any], Any] = _name
    parse: Callable[[str], Any] = str
    wire: Callable[[Any], Any] = lambda value: value
    after_drain: bool = False
    starts_run: bool = True

    @property
    def name(self) -> str:
        return self.cls.name

    @property
    def handler(self) -> str:
        """The :class:`~repro.service.core.ClusterService` method that
        executes the command."""
        return "_on_" + self.name.replace("-", "_")


COMMANDS: Dict[str, CommandSpec] = {
    spec.name: spec
    for spec in (
        # class, syntax, help; then the argument's wire key, coercer
        # and text parser
        CommandSpec(AdvanceCommand, "advance MS",
                    "advance virtual time by MS milliseconds",
                    "ms", _duration, float),
        CommandSpec(InjectCommand, "inject T_US:FN [T_US:FN ...]",
                    "enqueue arrivals at epoch-relative T_US",
                    "arrivals", _arrivals, _arrival_tokens,
                    wire=lambda arrivals: [[t, fn] for t, fn in arrivals],
                    starts_run=False),
        CommandSpec(AddHostCommand, "add-host",
                    "grow the cluster by one host"),
        CommandSpec(DrainHostCommand, "drain-host HOST",
                    "take HOST out of rotation, evict its idle VMs", "host"),
        CommandSpec(UndrainHostCommand, "undrain-host HOST",
                    "return HOST to rotation", "host"),
        CommandSpec(SwapPlacementCommand, "swap-placement NAME",
                    "hot-swap the placement policy", "policy"),
        CommandSpec(ArmCommand, "arm JSON",
                    "arm a fault plan (FaultPlan.as_dict JSON)",
                    "plan", _document(FaultPlan.from_dict), json.loads),
        CommandSpec(DisarmCommand, "disarm",
                    "cancel armed faults, heal degradations"),
        CommandSpec(SetKeepaliveCommand, "set-keepalive MS",
                    "retune the keep-alive TTL", "ttl_ms", _duration, float),
        CommandSpec(SnapshotTelemetryCommand, "snapshot-telemetry",
                    "emit a telemetry delta, pin its digest",
                    after_drain=True),
        CommandSpec(SetSloCommand, "set-slo [JSON]",
                    "install SLO objectives and burn-rate rules",
                    "config", _document(SloMonitor.from_dict),
                    lambda text: json.loads(text) if text else {}),
        CommandSpec(SloStatusCommand, "slo-status",
                    "evaluate the SLO monitor, pin its digest",
                    after_drain=True),
        CommandSpec(ScrubCommand, "scrub",
                    "force a full durability scrub pass now"),
        CommandSpec(DurabilityStatusCommand, "durability-status",
                    "replica/corruption state, pin its digest",
                    after_drain=True),
        CommandSpec(StatusCommand, "status",
                    "read-only state probe (not journaled)",
                    after_drain=True, starts_run=False),
        CommandSpec(DrainCommand, "drain",
                    "stop intake, serve out, finish the run"),
    )
}


def command_help() -> List[str]:
    """One aligned ``syntax  help`` line per command."""
    width = max(len(spec.syntax) for spec in COMMANDS.values())
    return [
        f"{spec.syntax:<{width}}  {spec.help}" for spec in COMMANDS.values()
    ]


def _spec(name) -> CommandSpec:
    spec = COMMANDS.get(name) if isinstance(name, str) else None
    if spec is None:
        raise CommandError(f"unknown command {name!r}")
    return spec


def command_from_dict(doc: Dict[str, Any]) -> Command:
    """Rebuild a command from its ``to_dict`` wire form."""
    if not isinstance(doc, dict):
        raise CommandError(f"a command is a JSON object, got {doc!r}")
    spec = _spec(doc.get("cmd"))
    args = doc.get("args", {})
    expected = [spec.key] if spec.key is not None else []
    if not isinstance(args, dict) or sorted(args) != expected:
        raise CommandError(
            f"command {spec.name!r} takes args {expected}, got {args!r}"
        )
    return spec.cls(**args)


def parse_command(line: str) -> Command:
    """Parse one text line into a command (grammar in
    :data:`COMMANDS`)."""
    head, _, rest = line.strip().partition(" ")
    if not head:
        raise CommandError("empty command line")
    spec = _spec(head)
    rest = rest.strip()
    if spec.key is None:
        if rest:
            raise CommandError(f"{head!r} takes no argument, got {rest!r}")
        return spec.cls()
    try:
        value = spec.parse(rest)
    except ValueError as exc:
        raise CommandError(f"bad arguments for {head!r}: {exc}") from None
    return spec.cls(**{spec.key: value})
