"""Live service mode: the command-driven cluster control plane.

The batch :class:`~repro.cluster.scheduler.ClusterSimulator` answers
"serve this whole trace, then hand me the report". This package turns
the same serving core into a *service*: a
:class:`~repro.service.core.ClusterService` owns an incrementally
advanced simulation, consumes arrivals from a streaming
:class:`~repro.fleet.workload.ArrivalSource` instead of an in-memory
trace, and executes a typed command stream — advance virtual time,
inject arrivals, grow/drain hosts, hot-swap placement, arm/disarm
fault plans, retune keep-alive, snapshot telemetry deltas; each
command is declared once, in :data:`~repro.service.commands.COMMANDS`.
:func:`~repro.service.core.build_service` builds a service from a
spec dict, and :func:`~repro.service.core.cluster_inputs` turns the
same spec into the fleet and ``ClusterConfig`` — ``repro cluster``,
``repro serve`` and ``repro fleet`` all configure the cluster there.

Every state-changing command is logged to a JSON-lines *journal*
(:mod:`~repro.service.journal`) carrying a digest of simulation state
after the command; replaying a journal re-executes the stream and
must reproduce every digest bit-for-bit — the service's determinism
contract. The legacy batch entry point is re-expressed on top: one
canned command stream (inject everything, drain), bit-identical to
the historical inline driver loop.

``python -m repro serve`` drives a service from a script file or an
interactive REPL; see ``docs/service.md`` for the operator cookbook.
"""

from repro.service.commands import (
    COMMANDS,
    AddHostCommand,
    AdvanceCommand,
    ArmCommand,
    Command,
    CommandError,
    DisarmCommand,
    DrainCommand,
    DrainHostCommand,
    DurabilityStatusCommand,
    InjectCommand,
    ScrubCommand,
    SetKeepaliveCommand,
    SetSloCommand,
    SloStatusCommand,
    SnapshotTelemetryCommand,
    StatusCommand,
    SwapPlacementCommand,
    UndrainHostCommand,
    command_from_dict,
    parse_command,
)
from repro.service.core import (
    ClusterService,
    ServiceError,
    build_service,
    cluster_inputs,
    normalize_spec,
    replay_journal,
)
from repro.service.journal import (
    JOURNAL_SCHEMA,
    JournalError,
    JournalWriter,
    read_journal,
)

__all__ = [
    "COMMANDS",
    "AddHostCommand",
    "AdvanceCommand",
    "ArmCommand",
    "ClusterService",
    "Command",
    "CommandError",
    "DisarmCommand",
    "DrainCommand",
    "DrainHostCommand",
    "DurabilityStatusCommand",
    "InjectCommand",
    "JOURNAL_SCHEMA",
    "JournalError",
    "JournalWriter",
    "ScrubCommand",
    "ServiceError",
    "SetKeepaliveCommand",
    "SetSloCommand",
    "SloStatusCommand",
    "SnapshotTelemetryCommand",
    "StatusCommand",
    "SwapPlacementCommand",
    "UndrainHostCommand",
    "build_service",
    "cluster_inputs",
    "command_from_dict",
    "normalize_spec",
    "parse_command",
    "read_journal",
    "replay_journal",
]
