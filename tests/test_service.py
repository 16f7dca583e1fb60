"""Tests for the live service core (repro.service).

The two load-bearing properties:

* batch-through-service bit-parity — ``ClusterSimulator.run`` now
  replays a canned command stream through :class:`ClusterService` and
  must produce exactly the report the historical inline driver did;
* journal determinism — replaying a journal reproduces every digest
  bit-for-bit, twice.
"""

import json

import pytest

from repro.cluster import ClusterConfig, ClusterSimulator
from repro.fleet import generate_arrivals, synthesize_fleet
from repro.fleet.workload import (
    Arrival,
    JsonLinesArrivalSource,
    PoissonArrivalSource,
    TraceArrivalSource,
)
from repro.service import (
    COMMANDS,
    AddHostCommand,
    AdvanceCommand,
    ArmCommand,
    CommandError,
    DisarmCommand,
    DrainCommand,
    DrainHostCommand,
    InjectCommand,
    JournalWriter,
    ServiceError,
    SetKeepaliveCommand,
    SnapshotTelemetryCommand,
    StatusCommand,
    SwapPlacementCommand,
    UndrainHostCommand,
    build_service,
    command_from_dict,
    parse_command,
    replay_journal,
)
from repro.service.core import ClusterService

HOUR_US = 3_600_000_000.0


def _small_fleet(seed=5, functions=4):
    return synthesize_fleet(
        functions, seed=seed, profile_names=("json", "pyaes")
    )


def _checksum(report):
    return round(sum(s.latency_us for s in report.served), 2)


# -- batch parity ------------------------------------------------------


def test_run_batch_matches_repeated_runs_bit_for_bit():
    fleet = _small_fleet()
    trace = generate_arrivals(fleet, 0.25 * HOUR_US, seed=5)
    config = ClusterConfig(num_hosts=2, seed=3)
    first = ClusterSimulator(fleet, config).run(trace)
    second = ClusterSimulator(fleet, config).run(trace)
    assert len(first.served) == len(second.served)
    assert _checksum(first) == _checksum(second)
    assert [s.latency_us for s in first.served] == [
        s.latency_us for s in second.served
    ]


def test_incremental_advance_equals_batch():
    """Serving a trace through many small advance windows produces the
    same invocations and latencies as one batch drain."""
    fleet = _small_fleet()
    trace = generate_arrivals(fleet, 0.25 * HOUR_US, seed=5)
    config = ClusterConfig(num_hosts=2, seed=3)

    batch = ClusterSimulator(fleet, config).run(trace)

    service = ClusterService(
        ClusterSimulator(fleet, config),
        arrival_source=TraceArrivalSource(trace),
    )
    for _ in range(40):
        service.execute(AdvanceCommand(ms=30_000.0))
    report = service.execute(DrainCommand()) and service.report
    assert len(report.served) == len(batch.served)
    assert _checksum(report) == _checksum(batch)


def test_poisson_source_matches_generate_arrivals_chunking():
    fleet = _small_fleet(seed=9, functions=6)
    horizon = 0.5 * HOUR_US
    batch = generate_arrivals(fleet, horizon, seed=4).arrivals
    source = PoissonArrivalSource(fleet, seed=4)
    streamed = []
    # Uneven chunk boundaries must not change the stream.
    for rel in (1e6, 1e6, 3e8, 9e8, horizon / 2, horizon - 1e-9):
        streamed.extend(source.take_until(rel))
    streamed = [a for a in streamed if a.time_us < horizon]
    assert [(a.time_us, a.function) for a in streamed] == [
        (a.time_us, a.function) for a in batch
    ]


def test_jsonlines_source_streams_and_rejects_unsorted():
    lines = [
        "# comment",
        "",
        json.dumps({"time_us": 10.0, "function": "a"}),
        json.dumps({"time_us": 20.5, "function": "b"}),
    ]
    source = JsonLinesArrivalSource(iter(lines))
    assert [a.function for a in source.take_until(15.0)] == ["a"]
    assert [a.function for a in source.take_until(30.0)] == ["b"]
    assert source.take_until(1e9) == []

    bad = JsonLinesArrivalSource(
        iter(
            [
                json.dumps({"time_us": 10.0, "function": "a"}),
                json.dumps({"time_us": 5.0, "function": "b"}),
            ]
        )
    )
    # The regression is detected as soon as the reader's one-record
    # lookahead reaches the out-of-order record.
    with pytest.raises(ValueError):
        bad.take_until(12.0)


# -- commands ----------------------------------------------------------


def _service(**spec_overrides):
    spec = {
        "functions": 4,
        "fleet_seed": 5,
        "hosts": 2,
        "seed": 3,
        "source": {"kind": "trace", "duration_us": 0.25 * HOUR_US, "seed": 5},
    }
    spec.update(spec_overrides)
    return build_service(spec)


def test_swap_placement_takes_effect_live():
    service = _service()
    service.execute(AdvanceCommand(ms=60_000.0))
    result = service.execute(SwapPlacementCommand(policy="round-robin"))
    assert result["placement"] == "round-robin"
    assert service.simulator.config.placement == "round-robin"
    assert service.simulator._policy.name == "round-robin"
    service.execute(AdvanceCommand(ms=60_000.0))
    service.execute(DrainCommand())
    assert service.report.placement == "round-robin"


def test_add_host_enters_rotation_and_status_reports_it():
    service = _service()
    service.execute(AdvanceCommand(ms=30_000.0))
    result = service.execute(AddHostCommand())
    assert result["host"] == "host2"
    assert result["hosts"] == 3
    status = service.execute(StatusCommand())
    assert [h["host"] for h in status["hosts"]] == [
        "host0",
        "host1",
        "host2",
    ]
    # Local tier: the new host preps in the background before joining.
    assert result["drained"] is True
    service.execute(AdvanceCommand(ms=600_000.0))
    status = service.execute(StatusCommand())
    assert status["hosts"][2]["drained"] is False
    service.execute(DrainCommand())


def test_add_host_on_shared_tier_adopts_host0_artifacts(tmp_path):
    """On the shared-EBS tier a host added live restores the files
    host0 recorded on the shared volume: it joins undrained, holding
    host0's artefact objects, and the session replays digest for
    digest."""
    path = tmp_path / "svc.journal"
    journal = JournalWriter(str(path))
    service = build_service(
        {
            "functions": 4,
            "fleet_seed": 5,
            "hosts": 2,
            "seed": 3,
            "tier": "shared-ebs",
            "placement": "round-robin",
            "source": {
                "kind": "trace",
                "duration_us": 0.25 * HOUR_US,
                "seed": 5,
            },
        },
        journal=journal,
    )
    service.execute(AdvanceCommand(ms=60_000.0))
    result = service.execute(AddHostCommand())
    assert result["host"] == "host2"
    assert result["drained"] is False
    sim = service.simulator
    host0, host2 = sim._hosts[0].host, sim._hosts[2].host
    config = sim.config
    for function in sim.fleet:
        for policy in sim._record_plan():
            adopted = host2.cached_artifacts(
                function.name, config.record_input, policy
            )
            assert adopted is not None
            assert adopted is host0.cached_artifacts(
                function.name, config.record_input, policy
            )
    service.execute(AdvanceCommand(ms=120_000.0))
    service.execute(DrainCommand())
    journal.close()
    assert service.report.host_stats["host2"].invocations > 0

    replay = replay_journal(str(path))
    assert replay.ok, replay.mismatches
    assert replay.entries == 4
    assert _checksum(replay.service.report) == _checksum(service.report)


def test_drain_and_undrain_host():
    service = _service()
    service.execute(AdvanceCommand(ms=120_000.0))
    result = service.execute(DrainHostCommand(host="host1"))
    assert result["host"] == "host1"
    status = service.execute(StatusCommand())
    host1 = status["hosts"][1]
    assert host1["drained"] is True and host1["healthy"] is False
    assert host1["idle_vms"] == 0
    service.execute(UndrainHostCommand(host="host1"))
    status = service.execute(StatusCommand())
    assert status["hosts"][1]["drained"] is False
    assert status["hosts"][1]["healthy"] is True
    service.execute(DrainCommand())


def test_arm_and_disarm_mid_run():
    service = _service()
    service.execute(AdvanceCommand(ms=60_000.0))
    assert service.simulator._armed is False
    plan = {
        "device_faults": [
            {
                "scope": "host0",
                "start_us": 1_000_000.0,
                "duration_us": 600_000_000.0,
                "latency_factor": 50.0,
            }
        ]
    }
    result = service.execute(ArmCommand(plan=plan))
    assert result["faults"] == 1
    assert service.simulator._armed is True
    # Let the window open, then disarm: the degradation must heal.
    service.execute(AdvanceCommand(ms=30_000.0))
    host0 = service.simulator._hosts[0].host
    assert host0.device.degradation is not None
    service.execute(DisarmCommand())
    assert host0.device.degradation is None
    service.execute(AdvanceCommand(ms=60_000.0))
    service.execute(DrainCommand())


def test_arm_mid_flight_fails_unarmed_invocations_cleanly():
    """Invocations dispatched before a live ``arm`` finish their
    inline attempt; a fault that hits one ends it as a recorded
    failure instead of an exception escaping the service."""
    service = _service(
        functions=2, hosts=1, max_concurrent=1, ttl_us=0.0,
        source={"kind": "none"},
    )
    # Second round restores from the snapshots the first round left.
    service.execute(InjectCommand(arrivals=(
        (1_000_000.0, "fn0000"),
        (1_000_000.0, "fn0001"),
        (60_000_000.0, "fn0000"),
        (60_000_000.0, "fn0001"),
    )))
    service.execute(AdvanceCommand(ms=60_000.0))
    assert service.simulator._armed is False
    plan = {
        "device_faults": [
            {"scope": "host0", "start_us": 0.0, "error_rate": 1.0}
        ]
    }
    service.execute(ArmCommand(plan=plan))
    service.execute(DrainCommand())
    outcomes = [(s.function, s.outcome.value) for s in service.report.served]
    assert outcomes == [
        ("fn0000", "ok"),
        ("fn0001", "ok"),
        ("fn0000", "failed"),
        ("fn0001", "failed"),
    ]
    assert service.report.host_stats["host0"].failures == 2


def test_set_keepalive_live():
    service = _service()
    service.execute(SetKeepaliveCommand(ttl_ms=1_000.0))
    assert service.simulator.config.keep_alive_ttl_us == 1_000_000.0
    service.execute(AdvanceCommand(ms=60_000.0))
    service.execute(DrainCommand())


def test_commands_after_drain_are_rejected():
    service = _service()
    service.execute(DrainCommand())
    with pytest.raises(ServiceError):
        service.execute(AdvanceCommand(ms=1.0))
    # Read-only probes stay available.
    assert service.execute(StatusCommand())["finished"] is True
    service.execute(SnapshotTelemetryCommand())


def test_inject_wakes_sleeping_pump_for_earlier_arrival():
    service = _service(source={"kind": "none"})
    service.execute(InjectCommand(arrivals=((5_000_000.0, "fn0001"),)))
    service.execute(AdvanceCommand(ms=1_000.0))
    # The pump now sleeps on the 5 s arrival; a 2 s arrival must
    # preempt that sleep and serve first.
    service.execute(InjectCommand(arrivals=((2_000_000.0, "fn0002"),)))
    service.execute(AdvanceCommand(ms=10_000.0))
    service.execute(DrainCommand())
    served = [(s.time_us, s.function) for s in service.report.served]
    assert served == [
        (2_000_000.0, "fn0002"),
        (5_000_000.0, "fn0001"),
    ]


def test_late_injection_is_latency_not_admission_wait():
    """An arrival injected after its nominal instant is served at once:
    the lateness shows in its latency, never as admission wait (no
    slot was waited on), and armed and unarmed runs agree."""

    def serve_late(armed):
        service = _service(source={"kind": "none"})
        if armed:
            service.execute(ArmCommand(plan={}))
        service.execute(AdvanceCommand(ms=5_000.0))
        service.execute(InjectCommand(arrivals=((1_000_000.0, "fn0001"),)))
        service.execute(DrainCommand())
        report = service.report
        assert service.simulator._armed is armed
        waits = {h: s.admission_wait_us for h, s in report.host_stats.items()}
        return waits, [s.latency_us for s in report.served]

    unarmed = serve_late(armed=False)
    assert unarmed == serve_late(armed=True)
    waits, latencies = unarmed
    assert waits == {"host0": 0.0, "host1": 0.0}
    # Served at t=5 s for a t=1 s arrival: 4 s of lateness included.
    assert len(latencies) == 1 and latencies[0] > 4_000_000.0


# -- wire forms --------------------------------------------------------


#: One text line per command in the table; a new command needs one.
COMMAND_EXAMPLES = {
    "advance": "advance 500",
    "inject": "inject 1000:fn0001 2500.5:fn0002",
    "add-host": "add-host",
    "drain-host": "drain-host host3",
    "undrain-host": "undrain-host host3",
    "swap-placement": "swap-placement locality",
    "arm": 'arm {"host_crashes": [{"host": "host0", "at_us": 9.0}]}',
    "disarm": "disarm",
    "set-keepalive": "set-keepalive 30000",
    "snapshot-telemetry": "snapshot-telemetry",
    "set-slo": 'set-slo {"rules": []}',
    "slo-status": "slo-status",
    "scrub": "scrub",
    "durability-status": "durability-status",
    "status": "status",
    "drain": "drain",
}


def test_command_text_and_dict_round_trip():
    assert set(COMMAND_EXAMPLES) == set(COMMANDS)
    for name, spec in COMMANDS.items():
        command = parse_command(COMMAND_EXAMPLES[name])
        assert command.name == name
        wire = json.loads(json.dumps(command.to_dict()))
        assert wire == command.to_dict()
        assert command_from_dict(wire) == command
        # Every table entry is dispatched to a service handler.
        assert callable(getattr(ClusterService, spec.handler)), name


def test_parse_command_rejects_garbage():
    for line in ["", "frobnicate", "advance", "inject", "inject nope",
                 "arm not-json", "set-keepalive -5", "arm 5", "arm [1,2]",
                 "arm", 'arm {"host_crashes": [{"bogus": 1}]}',
                 "set-slo []", "advance x", "advance nan", "advance inf",
                 "inject 5", "inject 1:", "drain-host", "add-host now"]:
        with pytest.raises(CommandError):
            parse_command(line)


def test_command_from_dict_rejects_garbage():
    for doc in [
        5,
        {},
        {"cmd": "frobnicate"},
        {"cmd": "advance"},
        {"cmd": "advance", "args": {"ms": "x"}},
        {"cmd": "advance", "args": {"ms": -1}},
        {"cmd": "advance", "args": [1]},
        {"cmd": "advance", "args": {"ms": 1, "extra": 2}},
        {"cmd": "inject", "args": {"arrivals": [[1.0]]}},
        {"cmd": "inject", "args": {"arrivals": [[1.0, 7]]}},
        {"cmd": "inject", "args": {"arrivals": 3}},
        {"cmd": "arm", "args": {"plan": [1, 2]}},
        {"cmd": "arm", "args": {"plan": 5}},
        {"cmd": "set-slo", "args": {"config": {"bogus": 1}}},
        {"cmd": "drain-host", "args": {"host": 3}},
        {"cmd": "add-host", "args": {"host": "host0"}},
    ]:
        with pytest.raises(CommandError):
            command_from_dict(doc)


def test_constructors_validate_through_the_table():
    with pytest.raises(CommandError):
        AdvanceCommand(ms=-1.0)
    with pytest.raises(CommandError):
        ArmCommand(plan=[1, 2])
    # A well-formed argument keeps its wire form: an int stays an int.
    assert AdvanceCommand(ms=0).to_dict() == {
        "cmd": "advance", "args": {"ms": 0}
    }


def test_replay_of_a_malformed_journal_is_an_error(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "bad.journal"
    journal = JournalWriter(str(path))
    build_service({"functions": 2, "hosts": 1}, journal=journal)
    journal.append({"seq": 1, "cmd": {"cmd": "advance", "args": {"ms": "x"}}})
    journal.close()
    assert main(["serve", "--replay", str(path)]) == 2
    assert "error: bad arguments for 'advance'" in capsys.readouterr().err


# -- journal replay ----------------------------------------------------


def test_journal_replay_is_bit_identical_twice(tmp_path):
    path = tmp_path / "svc.journal"
    spec = {
        "functions": 4,
        "fleet_seed": 5,
        "hosts": 2,
        "seed": 3,
        "source": {"kind": "trace", "duration_us": 0.25 * HOUR_US, "seed": 5},
        "sampler_interval_us": 60_000_000.0,
    }
    journal = JournalWriter(str(path))
    service = build_service(spec, journal=journal)
    for line in [
        "advance 120000",
        "swap-placement round-robin",
        "advance 120000",
        "add-host",
        "snapshot-telemetry",
        "advance 240000",
        "drain-host host1",
        "advance 120000",
        "inject 700000000:fn0001",
        "advance 120000",
        "snapshot-telemetry",
        "drain",
    ]:
        service.execute(parse_command(line))
    journal.close()
    live_checksum = _checksum(service.report)

    first = replay_journal(str(path))
    assert first.ok, first.mismatches
    assert first.entries == 12
    assert _checksum(first.service.report) == live_checksum

    second = replay_journal(str(path))
    assert second.ok, second.mismatches
    assert _checksum(second.service.report) == live_checksum


def test_journal_replay_detects_divergence(tmp_path):
    path = tmp_path / "svc.journal"
    journal = JournalWriter(str(path))
    service = build_service(
        {
            "functions": 4,
            "fleet_seed": 5,
            "hosts": 2,
            "seed": 3,
            "source": {
                "kind": "trace",
                "duration_us": 0.25 * HOUR_US,
                "seed": 5,
            },
        },
        journal=journal,
    )
    service.execute(AdvanceCommand(ms=300_000.0))
    service.execute(DrainCommand())
    journal.close()

    lines = path.read_text().splitlines()
    entry = json.loads(lines[1])
    assert entry["digest"]["served"] > 0
    entry["digest"]["served"] += 1
    lines[1] = json.dumps(entry, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")

    outcome = replay_journal(str(path))
    assert not outcome.ok
    assert outcome.mismatches[0]["field"] == "served"
