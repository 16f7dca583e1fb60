"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``functions`` — list the Table 2 benchmark functions and their
  calibrated working sets.
* ``invoke`` — run one function under one (or every) restore policy.
* ``experiment`` — regenerate a paper table/figure by id
  (``--cluster`` switches a figure to its contention-aware mode).
* ``validate`` — check the paper's claims C1-C4.
* ``fleet`` — run a small fleet simulation (paper §7.1): the cluster
  serving loop on one host, each start charged its measured cost.
* ``cluster`` — the same serving problem on N page-level simulated
  hosts, where restore contention is emergent.
* ``telemetry`` — run a function under full instrumentation and
  render the telemetry report (profiler phases, hot components, hit
  rates, sampled gauges).
* ``chaos`` — run a failure-injection drill (host-crash storm,
  device brownout, snapshot corruption, EBS latency spike) against
  the self-healing cluster and report availability, goodput, retry
  amplification and tail latency vs the fault-free baseline.
* ``serve`` — live service mode: drive the cluster incrementally
  with a command stream (advance time, inject arrivals, grow/drain
  hosts, hot-swap placement, arm/disarm faults), from a script file
  or an interactive REPL, journaling every command; ``--replay``
  re-executes a journal and gates on bit-identical digests.

``invoke``, ``cluster`` and ``telemetry`` accept ``--trace-out FILE``
to export the recorded spans as Zipkin-flavoured JSON (tagged per
host), ``--metrics-out FILE`` to export the run's telemetry registry
as structured JSON, and ``--chrome-trace FILE`` to export the spans
as a Chrome ``trace_event`` document for ``chrome://tracing`` /
Perfetto.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from typing import List, Optional

from repro.core import FaaSnapPlatform, Policy
from repro.metrics import render_table
from repro.workloads import get_profile, profile_names
from repro.workloads.base import INPUT_A, InputSpec


def _cmd_functions(_args: argparse.Namespace) -> int:
    rows = []
    for name in profile_names():
        profile = get_profile(name)
        rows.append(
            [
                name,
                profile.description,
                profile.ws_a_mb,
                profile.ws_b_mb,
                profile.compute_base_us / 1000,
            ]
        )
    print(
        render_table(
            ["function", "description", "WS_A_MB", "WS_B_MB", "compute_ms"],
            rows,
            title="Registered benchmark functions (paper Table 2)",
        )
    )
    return 0


def _write_output(path: str, text: str, what: str) -> int:
    """Shared output-path validation and writer for ``--trace-out``,
    ``--metrics-out``, ``--chrome-trace`` and friends. Returns 0, or
    2 when the target directory does not exist."""
    directory = os.path.dirname(path)
    if directory and not os.path.isdir(directory):
        print(
            f"cannot write {what}: directory {directory!r} does not exist",
            file=sys.stderr,
        )
        return 2
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")
    print(f"wrote {what} to {path}", file=sys.stderr)
    return 0


def _write_json(path: str, doc, what: str) -> int:
    return _write_output(path, json.dumps(doc, indent=2, sort_keys=True), what)


def _emit_run_outputs(
    args: argparse.Namespace, registry, tracer, sampler=None, total_us=None
) -> int:
    """Write whichever of the ``--trace-out``, ``--chrome-trace`` and
    ``--metrics-out`` flags were given."""
    from repro.metrics.exporters import to_chrome_trace, to_json_doc

    status = 0
    if args.trace_out and tracer is not None:
        status = _write_output(
            args.trace_out, tracer.to_json(), f"{len(tracer.roots)} trace(s)"
        )
    if args.chrome_trace and tracer is not None:
        doc = to_chrome_trace(tracer)
        status = (
            _write_json(
                args.chrome_trace,
                doc,
                f"chrome trace ({len(doc['traceEvents'])} events)",
            )
            or status
        )
    if args.metrics_out and registry is not None:
        doc = to_json_doc(registry, sampler=sampler, total_us=total_us)
        count = sum(len(doc[k]) for k in ("counters", "gauges", "histograms"))
        status = (
            _write_json(args.metrics_out, doc, f"metrics ({count} instruments)")
            or status
        )
    return status


def _recorders(args: argparse.Namespace, causal) -> tuple:
    """A fresh ``(causal tracer, flight recorder)`` pair for one run:
    the tracer when ``causal`` is truthy, the recorder when
    ``--flight-out`` is given, each ``None`` otherwise."""
    from repro.metrics.causal import CausalTracer
    from repro.metrics.flight import FlightRecorder

    return (
        CausalTracer() if causal else None,
        FlightRecorder() if args.flight_out else None,
    )


def _durability_doc(args: argparse.Namespace) -> Optional[dict]:
    """The ``--durability`` JSON document, or ``None`` without the
    flag. Passing the flag implies enabling the plane."""
    if args.durability is None:
        return None
    doc = json.loads(args.durability)
    doc.setdefault("enabled", True)
    return doc


#: The policies ``--policy all`` runs, in table order.
_ALL_POLICIES = (
    Policy.WARM, Policy.FIRECRACKER, Policy.CACHED, Policy.REAP, Policy.FAASNAP
)


def _input_arg(text: str) -> str:
    """argparse ``type=`` of ``--input``: ``A``, ``B`` or a positive
    size ratio; anything else is a usage error."""
    try:
        if text in ("A", "B") or 0.0 < float(text) < math.inf:
            return text
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected 'A', 'B' or a positive size ratio, got {text!r}"
    )


def _invocation_plan(args: argparse.Namespace, profile) -> tuple:
    """The test input and the policies of an ``invoke``/``telemetry``
    run, from its ``--input`` and ``--policy``."""
    if args.input == "A":
        test_input = INPUT_A
    elif args.input == "B":
        test_input = profile.input_b()
    else:
        test_input = InputSpec(content_id=9, size_ratio=float(args.input))
    policies = (
        _ALL_POLICIES if args.policy == "all" else (Policy(args.policy),)
    )
    return test_input, policies


def _cmd_invoke(args: argparse.Namespace) -> int:
    from repro.metrics.tracing import Tracer

    platform = FaaSnapPlatform(remote_storage=args.remote)
    handle = platform.register_function(get_profile(args.function))
    tracer = (
        Tracer(default_tags={"host": platform.host.host_id})
        if args.trace_out or args.chrome_trace
        else None
    )
    test_input, policies = _invocation_plan(args, handle.profile)
    rows = []
    for policy in policies:
        result = platform.invoke(
            handle, test_input, policy, record_input=INPUT_A, tracer=tracer
        )
        rows.append(
            [
                policy.value,
                result.setup_us / 1000,
                result.invoke_us / 1000,
                result.total_ms,
                result.fault_count(),
                result.major_faults,
            ]
        )
    print(
        render_table(
            ["policy", "setup_ms", "invoke_ms", "total_ms", "faults", "majors"],
            rows,
            title=f"{args.function}, test input {args.input} "
            f"({'EBS' if args.remote else 'NVMe'})",
        )
    )
    return _emit_run_outputs(
        args,
        platform.metrics,
        tracer,
        total_us=platform.env.now,
    )


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import ALL_EXPERIMENTS, runner

    module = ALL_EXPERIMENTS.get(args.id)
    if module is None:
        print(
            f"unknown experiment {args.id!r}; "
            f"known: {', '.join(ALL_EXPERIMENTS)}",
            file=sys.stderr,
        )
        return 2
    sink: Optional[list] = [] if args.metrics_out else None
    runner.TELEMETRY_SINK = sink
    try:
        if args.cluster:
            if not hasattr(module, "run_cluster"):
                print(
                    f"experiment {args.id!r} has no contention-aware "
                    "cluster mode",
                    file=sys.stderr,
                )
                return 2
            print(
                module.format_cluster_table(module.run_cluster(jobs=args.jobs))
            )
        else:
            print(module.format_table(module.run(jobs=args.jobs)))
    finally:
        runner.TELEMETRY_SINK = None
    if sink:
        from repro.metrics.exporters import merge_shard_snapshots

        merged = merge_shard_snapshots(sink)
        return _write_json(
            args.metrics_out,
            merged,
            f"merged metrics from {merged['shards']} shard(s)",
        )
    if args.metrics_out:
        print(
            "no telemetry snapshots were produced by this experiment",
            file=sys.stderr,
        )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.experiments import claims

    results = claims.check_all(quick=not args.full)
    for result in results:
        print(result)
    return 0 if all(r.passed for r in results) else 1


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.cluster import ClusterSimulator
    from repro.fleet import CostModel, StartKind, generate_arrivals
    from repro.fleet.workload import US_PER_HOUR, US_PER_MINUTE
    from repro.service import cluster_inputs

    fleet, config = cluster_inputs(
        {
            "functions": args.functions,
            "fleet_seed": args.seed,
            "hosts": 1,
            "placement": "round-robin",
            "policy": args.policy,
            "ttl_us": args.ttl_minutes * US_PER_MINUTE,
            "memory_mb": args.memory_gb * 1024,
        }
    )
    trace = generate_arrivals(fleet, args.hours * US_PER_HOUR, seed=args.seed)
    policy = config.restore_policy
    cost_model = CostModel()
    if args.jobs is not None:
        cost_model.precompute(
            [(name, policy) for name in ("json", "pyaes")], jobs=args.jobs
        )
    costs = {f.name: cost_model.costs(f.profile_name, policy) for f in fleet}
    report = ClusterSimulator(fleet, config, costs=costs).run(trace)
    print(
        render_table(
            ["metric", "value"],
            [
                ["invocations", report.count()],
                ["mean latency (ms)", report.mean_latency_us() / 1000],
                ["p99 latency (ms)", report.latency_percentile(99) / 1000],
                ["warm %", report.fraction(StartKind.WARM) * 100],
                ["snapshot %", report.fraction(StartKind.SNAPSHOT) * 100],
                ["cold %", report.fraction(StartKind.COLD) * 100],
                ["mean memory (GB)", report.mean_memory_mb() / 1024],
                ["evictions", report.evictions],
            ],
            title=f"Fleet: {args.functions} functions over {args.hours:g} h, "
            f"{args.policy} snapshots",
        )
    )
    return 0


def _cluster_spec(args: argparse.Namespace) -> dict:
    """The service spec of the flags :func:`_add_cluster_args`
    declares. ``--seed`` seeds the fleet; ``serve`` also makes it the
    run seed and adds the arrival source."""
    from repro.fleet.workload import US_PER_MINUTE

    return {
        "functions": args.functions,
        "fleet_seed": args.seed,
        "hosts": args.hosts,
        "placement": args.placement,
        "policy": args.policy,
        "tier": args.tier,
        "ttl_us": args.ttl_minutes * US_PER_MINUTE,
        "memory_mb": args.memory_gb * 1024,
        "max_concurrent": args.max_concurrent,
        "sampler_interval_us": (
            args.sample_interval_ms * 1000.0
            if args.sample_interval_ms is not None
            else None
        ),
        "slo": json.loads(args.slo) if args.slo is not None else None,
        # The raw dicts (not the monitor or the policy) go in the spec
        # so the journal header stays JSON and replays rebuild them.
        "durability": _durability_doc(args),
    }


def _write_serving_outputs(
    args: argparse.Namespace, report, causal=None, slo_doc=None, flight=None
) -> int:
    """The ``--report-out``, ``--causal-trace``, SLO status and
    ``--flight-out`` outputs of ``cluster`` and ``serve``."""
    from repro.metrics.exporters import fleet_report_doc

    status = 0
    if args.report_out and report is not None:
        status = _write_json(
            args.report_out,
            fleet_report_doc(report),
            f"serving report ({report.count()} invocations)",
        )
    if args.causal_trace and causal is not None and not status:
        status = _write_output(
            args.causal_trace,
            causal.to_json(),
            f"causal trace ({len(causal.document()['invocations'])} "
            "invocations)",
        )
    if status:
        return status
    if slo_doc is not None:
        from repro.metrics.slo import render_slo_status

        print(render_slo_status(slo_doc))
    if flight is not None:
        return _write_output(
            args.flight_out,
            flight.to_json(),
            f"flight recorder ({len(flight.postmortems)} postmortem(s), "
            f"{flight.dump_triggers} trigger(s))",
        )
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    from repro.fleet import StartKind, generate_arrivals
    from repro.fleet.workload import US_PER_HOUR
    from repro.metrics.tracing import Tracer
    from repro.service import build_service, cluster_inputs

    spec = _cluster_spec(args)
    if args.sample_interval_ms is None and args.metrics_out:
        spec["sampler_interval_us"] = 100_000.0
    sharded = args.shards > 0
    causal, flight = _recorders(
        args, args.causal_trace or (sharded and args.chrome_trace)
    )
    slo_doc = None
    if sharded:
        from repro.cluster import ShardedClusterSimulator

        if args.trace_out or args.sample_interval_ms is not None:
            print(
                "note: --trace-out/--sample-interval-ms are per-heap "
                "instruments; ignored with --shards"
            )
        if args.slo is not None or flight is not None:
            print(
                "note: --slo/--flight-out ride the single-heap serving "
                "plane; ignored with --shards"
            )
            flight = None
        fleet, config = cluster_inputs(spec)
        trace = generate_arrivals(
            fleet, args.hours * US_PER_HOUR, seed=args.seed
        )
        simulator = ShardedClusterSimulator(
            fleet,
            config,
            shards=args.shards,
            window_us=args.window_ms * 1000.0,
        )
        report = simulator.run(trace, causal=causal)
    else:
        tracer = Tracer() if args.trace_out or args.chrome_trace else None
        service = build_service(
            spec, tracer=tracer, causal=causal, flight=flight
        )
        simulator = service.simulator
        trace = generate_arrivals(
            simulator.fleet, args.hours * US_PER_HOUR, seed=args.seed
        )
        report = service.run_batch(trace)
        if service.slo is not None:
            slo_doc, _ = service.slo_status()
    rows = [
        ["invocations", report.count()],
        ["prep (s)", report.prep_us / 1e6],
        ["mean latency (ms)", report.mean_latency_us() / 1000],
        ["p99 latency (ms)", report.latency_percentile(99) / 1000],
        ["warm %", report.fraction(StartKind.WARM) * 100],
        ["snapshot %", report.fraction(StartKind.SNAPSHOT) * 100],
        ["cold %", report.fraction(StartKind.COLD) * 100],
        ["evictions", report.evictions],
    ]
    if spec["durability"] is not None:
        summary = (
            simulator.durability.summary()
            if getattr(simulator, "durability", None) is not None
            else report.fault_summary
        )
        for name in (
            "detected_restore",
            "detected_scrub",
            "silent_corrupt_serves",
            "quarantines",
            "repairs",
            "rebuilds",
        ):
            if summary.get(name):
                rows.append([f"durability: {name}", summary[name]])
    print(
        render_table(
            ["metric", "value"],
            rows,
            title=f"Cluster: {args.functions} functions over "
            f"{args.hours:g} h on {args.hosts} host(s), "
            f"{args.placement} placement, {args.tier} tier",
        )
    )
    host_rows = [
        [
            stats.host,
            stats.invocations,
            stats.warm_starts,
            stats.snapshot_starts,
            stats.cold_starts,
            stats.evictions,
            stats.device_bytes_read / 1e6,
            stats.device_queue_wait_us / 1000,
        ]
        for stats in report.host_stats.values()
    ]
    print(
        render_table(
            [
                "host",
                "served",
                "warm",
                "snapshot",
                "cold",
                "evictions",
                "dev_read_MB",
                "dev_qwait_ms",
            ],
            host_rows,
            title="Per-host breakdown",
        )
    )
    status = _write_serving_outputs(args, report, causal, slo_doc, flight)
    if status:
        return status
    if not sharded:
        return _emit_run_outputs(
            args,
            simulator.registry,
            tracer,
            sampler=simulator.sampler,
            total_us=simulator.env.now,
        )
    if args.metrics_out:
        status = _write_json(
            args.metrics_out,
            simulator.merged_metrics,
            "merged shard telemetry",
        )
    if args.chrome_trace and not status:
        from repro.metrics.exporters import causal_to_chrome_trace

        status = _write_json(
            args.chrome_trace,
            causal_to_chrome_trace(causal.document()),
            "Chrome trace (causal events)",
        )
    if status:
        return status
    print(
        f"sharded: {simulator.shards} shard(s), "
        f"{simulator.windows_run} window(s) of "
        f"{simulator.window_us / 1000:g} ms"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.fleet.workload import JsonLinesArrivalSource
    from repro.service import (
        JournalWriter,
        ServiceError,
        StatusCommand,
        build_service,
        replay_journal,
    )

    if args.replay:
        try:
            outcome = replay_journal(args.replay)
        except (ServiceError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if outcome.ok:
            print(
                f"replay OK: {outcome.entries} command(s), "
                f"every digest bit-identical"
            )
            return 0
        print(
            f"replay FAILED: {len(outcome.mismatches)} digest "
            f"mismatch(es) across {outcome.entries} command(s)"
        )
        for mismatch in outcome.mismatches[:10]:
            print(
                f"  seq {mismatch['seq']}: {mismatch['field']} "
                f"expected {mismatch['expected']!r} "
                f"got {mismatch['actual']!r}"
            )
        return 1

    if args.arrivals == "-" and args.script is None:
        print(
            "error: --arrivals - (stdin) requires --script "
            "(the REPL reads commands from stdin)",
            file=sys.stderr,
        )
        return 2
    spec = _cluster_spec(args)
    spec["seed"] = args.seed
    causal, flight = _recorders(args, args.causal_trace)
    journal = JournalWriter(args.journal) if args.journal else None
    with contextlib.ExitStack() as stack:
        arrival_source = None
        if args.arrivals == "poisson":
            spec["source"] = {"kind": "poisson", "seed": args.seed}
        elif args.arrivals == "none":
            spec["source"] = {"kind": "none"}
        else:
            spec["source"] = {"kind": "external"}
            arrival_source = JsonLinesArrivalSource(
                sys.stdin
                if args.arrivals == "-"
                else stack.enter_context(
                    open(args.arrivals, "r", encoding="utf-8")
                )
            )
        service = build_service(
            spec,
            arrival_source=arrival_source,
            journal=journal,
            causal=causal,
            flight=flight,
        )
        status = _serve_session(service, args.script)
    if journal is not None:
        journal.close()
    report = service.report
    if report is not None:
        print(
            f"served {len(report.served)} invocation(s), "
            f"mean latency {report.mean_latency_us() / 1000:.2f} ms, "
            f"final state {json.dumps(service.execute(StatusCommand()), sort_keys=True, default=str)}"
        )
    slo_doc = service.slo_status()[0] if service.slo is not None else None
    return (
        _write_serving_outputs(args, report, causal, slo_doc, flight)
        or status
    )


def _serve_session(service, script: Optional[str]) -> int:
    """Execute a script's commands, or the REPL's without one, then
    drain unless a command already did. A bad script line stops the
    session with status 2 and no drain; the REPL reports it and reads
    on."""
    from repro.service import (
        CommandError,
        DrainCommand,
        ServiceError,
        parse_command,
    )

    if script is None:
        lines = _repl_lines()
    else:
        with open(script, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            command = parse_command(line)
            result = service.execute(command)
        except (CommandError, ServiceError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            if script is not None:
                return 2
            continue
        print(json.dumps(result, sort_keys=True, default=str))
        if isinstance(command, DrainCommand):
            break
    if service.report is None:
        # Stream ended without an explicit drain: serve out what is
        # pending so the run always produces a complete report.
        service.execute(DrainCommand())
    return 0


def _repl_lines():
    """Prompted line iterator for the interactive serve REPL."""
    from repro.service.commands import command_help

    print(
        "live cluster service — commands (^D quits, draining first):",
        *("  " + line for line in command_help()),
        sep="\n",
        file=sys.stderr,
    )
    while True:
        try:
            yield input("serve> ")
        except EOFError:
            return


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults import DISABLED_RECOVERY
    from repro.faults.chaos import SCENARIO_NAMES, run_chaos
    from repro.metrics.slo import SloMonitor

    names = (
        list(SCENARIO_NAMES) if args.scenario == "all" else [args.scenario]
    )
    recovery = DISABLED_RECOVERY if args.no_recovery else None
    slo_config = None
    if args.slo is not None:
        slo_config = json.loads(args.slo)
    elif args.require_alert:
        slo_config = {}
    status = 0
    reports = []
    flight_docs = {}
    alerts_fired = 0
    for name in names:
        slo = (
            SloMonitor.from_dict(slo_config)
            if slo_config is not None
            else None
        )
        _, flight = _recorders(args, causal=False)
        report = run_chaos(
            name,
            num_hosts=args.hosts,
            seed=args.seed,
            arrivals=args.arrivals,
            recovery=recovery,
            slo=slo,
            flight=flight,
        )
        reports.append(report)
        print(report.render())
        if slo is not None:
            alerts_fired += len(slo.alerts)
            print(
                f"  slo: {slo.observed} observation(s), "
                f"{len(slo.alerts)} burn-rate alert(s)"
            )
        if flight is not None:
            flight_docs[name] = flight.document()
            print(
                f"  flight: {len(flight.postmortems)} postmortem(s), "
                f"{flight.dump_triggers} trigger(s)"
            )
        if (
            args.min_availability is not None
            and report.availability < args.min_availability
        ):
            print(
                f"FAIL: {name} availability {report.availability:.4f} "
                f"below required {args.min_availability:.4f}",
                file=sys.stderr,
            )
            status = 1
        if (
            args.min_detection is not None
            and report.detection_rate < args.min_detection
        ):
            print(
                f"FAIL: {name} corruption detection rate "
                f"{report.detection_rate:.4f} below required "
                f"{args.min_detection:.4f} "
                f"({report.silent_corrupt_serves} silent corrupt "
                f"serve(s))",
                file=sys.stderr,
            )
            status = 1
    if args.require_alert and alerts_fired == 0:
        print(
            "FAIL: --require-alert set but no burn-rate alert fired "
            f"across {len(reports)} drill(s)",
            file=sys.stderr,
        )
        status = 1
    if args.flight_out:
        doc = (
            next(iter(flight_docs.values()))
            if len(flight_docs) == 1
            else flight_docs
        )
        status = (
            _write_json(
                args.flight_out,
                doc,
                f"flight recorder ({len(flight_docs)} drill(s))",
            )
            or status
        )
    if args.report_out:
        doc = (
            reports[0].as_dict()
            if len(reports) == 1
            else [r.as_dict() for r in reports]
        )
        status = (
            _write_json(
                args.report_out,
                doc,
                f"chaos report ({len(reports)} drill(s))",
            )
            or status
        )
    return status


def _cmd_telemetry(args: argparse.Namespace) -> int:
    from repro.metrics.exporters import to_prometheus
    from repro.metrics.telemetry import Sampler, render_run_report
    from repro.metrics.tracing import Tracer

    platform = FaaSnapPlatform(remote_storage=args.remote)
    handle = platform.register_function(get_profile(args.function))
    tracer = Tracer(default_tags={"host": platform.host.host_id})
    registry = platform.metrics
    sampler = Sampler(
        registry, platform.env, args.sample_interval_ms * 1000.0
    )
    test_input, policies = _invocation_plan(args, handle.profile)
    # The sampler's pending timeout would hang the bare
    # ``env.run()`` the record phase uses; ``invoke`` drives the
    # loop with ``run(until=...)`` throughout, so starting the
    # sampler once up front is safe.
    sampler.start()
    try:
        for policy in policies:
            platform.invoke(
                handle, test_input, policy, record_input=INPUT_A, tracer=tracer
            )
    finally:
        sampler.stop()

    print(
        render_run_report(
            registry, platform.env.now, sampler=sampler, top=args.top
        )
    )
    status = _emit_run_outputs(
        args, registry, tracer, sampler=sampler, total_us=platform.env.now
    )
    if args.prometheus_out:
        status = (
            _write_output(
                args.prometheus_out,
                to_prometheus(registry),
                "prometheus exposition",
            )
            or status
        )
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="FaaSnap reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("functions", help="list benchmark functions").set_defaults(
        handler=_cmd_functions
    )

    invoke = sub.add_parser("invoke", help="invoke one function")
    _add_invocation_args(invoke, default_policy="all")
    _add_telemetry_outputs(invoke)
    invoke.set_defaults(handler=_cmd_invoke)

    experiment = sub.add_parser(
        "experiment", help="regenerate a paper table/figure"
    )
    experiment.add_argument("id", help="e.g. fig1, table2, fig9")
    experiment.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for independent cells (results are "
        "bit-identical to a serial run; 0/1 serial, -1 one per CPU)",
    )
    experiment.add_argument(
        "--cluster",
        action="store_true",
        help="contention-aware multi-host mode (fig10/fig11 only)",
    )
    experiment.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write telemetry merged across experiment shards as JSON",
    )
    experiment.set_defaults(handler=_cmd_experiment)

    validate = sub.add_parser(
        "validate", help="check the paper's claims C1-C4 (appendix A.4)"
    )
    validate.add_argument(
        "--full", action="store_true", help="full paper sweeps (slow)"
    )
    validate.set_defaults(handler=_cmd_validate)

    fleet = sub.add_parser("fleet", help="fleet simulation (paper 7.1)")
    fleet.add_argument("--functions", type=int, default=60)
    fleet.add_argument("--hours", type=float, default=2.0)
    fleet.add_argument("--ttl-minutes", type=float, default=15.0)
    fleet.add_argument("--memory-gb", type=float, default=8.0)
    fleet.add_argument(
        "--policy",
        default=Policy.FAASNAP.value,
        choices=[p.value for p in Policy],
    )
    fleet.add_argument("--seed", type=int, default=1)
    fleet.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for precomputing serving costs",
    )
    fleet.set_defaults(handler=_cmd_fleet)

    cluster = sub.add_parser(
        "cluster",
        help="contention-aware multi-host serving (page-level restores)",
    )
    _add_cluster_args(cluster, functions=12, hosts=4)
    cluster.add_argument("--hours", type=float, default=0.5)
    cluster.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help="run the sharded execution path with N worker shards "
        "(1 = the same windowed protocol, serially; results are "
        "bit-identical for any N; default: the single-heap path)",
    )
    cluster.add_argument(
        "--window-ms",
        type=float,
        default=250.0,
        metavar="MS",
        help="synchronization window for --shards (default: 250)",
    )
    _add_telemetry_outputs(cluster)
    cluster.set_defaults(handler=_cmd_cluster)

    serve = sub.add_parser(
        "serve",
        help="live service mode: drive the cluster with a journaled "
        "command stream (script file or interactive REPL)",
    )
    _add_cluster_args(serve, functions=8, hosts=2)
    serve.add_argument(
        "--arrivals",
        default="poisson",
        metavar="SOURCE",
        help="arrival stream pulled by 'advance': 'poisson' "
        "(synthetic, seeded), 'none' (only explicit inject), '-' "
        "(JSON lines from stdin; needs --script), or a JSON-lines "
        "file of {\"time_us\": ..., \"function\": ...} records "
        "(default: poisson)",
    )
    serve.add_argument(
        "--script",
        default=None,
        metavar="FILE",
        help="command file, one command per line ('#' comments "
        "allowed); without it, an interactive REPL reads stdin",
    )
    serve.add_argument(
        "--journal",
        default=None,
        metavar="FILE",
        help="record every executed command (with pulled arrivals "
        "and a state digest) as a replayable JSON-lines journal",
    )
    serve.add_argument(
        "--replay",
        default=None,
        metavar="FILE",
        help="re-execute a journal and verify every digest is "
        "bit-identical (exit non-zero on any mismatch); all other "
        "flags are ignored — the journal header pins the topology",
    )
    serve.set_defaults(handler=_cmd_serve)

    chaos = sub.add_parser(
        "chaos",
        help="run a failure-injection drill against the cluster and "
        "report availability, goodput and tail latency",
    )
    from repro.faults.chaos import SCENARIO_NAMES

    chaos.add_argument(
        "--scenario",
        default="all",
        choices=["all"] + list(SCENARIO_NAMES),
        help="which drill to run (default: all of them)",
    )
    chaos.add_argument("--hosts", type=int, default=4)
    chaos.add_argument("--seed", type=int, default=1)
    chaos.add_argument(
        "--arrivals",
        type=int,
        default=60,
        metavar="N",
        help="invocations in the drill trace (default 60)",
    )
    chaos.add_argument(
        "--no-recovery",
        action="store_true",
        help="disable retries/hedging/failover to measure the "
        "unprotected cluster",
    )
    chaos.add_argument(
        "--report-out",
        default=None,
        metavar="FILE",
        help="write the drill report(s) as deterministic JSON",
    )
    chaos.add_argument(
        "--min-availability",
        type=float,
        default=None,
        metavar="FRACTION",
        help="exit non-zero if any drill's availability falls below "
        "this fraction",
    )
    chaos.add_argument(
        "--min-detection",
        type=float,
        default=None,
        metavar="FRACTION",
        help="exit non-zero if any drill's corruption detection rate "
        "falls below this fraction (1.0 = no corrupted restore may "
        "complete ok)",
    )
    chaos.add_argument(
        "--slo",
        default=None,
        metavar="JSON",
        help="attach an SLO monitor to each drill's faulted run and "
        "print burn-rate status ('{}' for the defaults)",
    )
    chaos.add_argument(
        "--flight-out",
        default=None,
        metavar="FILE",
        help="arm a flight recorder per drill and write the "
        "postmortem document(s) as JSON",
    )
    chaos.add_argument(
        "--require-alert",
        action="store_true",
        help="exit non-zero unless at least one burn-rate alert "
        "fired (implies an SLO monitor with the default config "
        "when --slo is not given)",
    )
    chaos.set_defaults(handler=_cmd_chaos)

    telemetry = sub.add_parser(
        "telemetry",
        help="run one function fully instrumented and print the "
        "telemetry report",
    )
    _add_invocation_args(telemetry, default_policy=Policy.FAASNAP.value)
    telemetry.add_argument(
        "--sample-interval-ms",
        type=float,
        default=10.0,
        metavar="MS",
        help="virtual-time gauge sampling cadence (default 10 ms)",
    )
    telemetry.add_argument(
        "--top",
        type=int,
        default=12,
        metavar="N",
        help="hot components shown in the report (default 12)",
    )
    _add_telemetry_outputs(telemetry)
    telemetry.add_argument(
        "--prometheus-out",
        default=None,
        metavar="FILE",
        help="write the registry in Prometheus text exposition format",
    )
    telemetry.set_defaults(handler=_cmd_telemetry)

    return parser


def _add_invocation_args(
    parser: argparse.ArgumentParser, default_policy: str
) -> None:
    """The function, ``--policy``, ``--input`` and ``--remote`` of the
    single-platform commands (``invoke``, ``telemetry``)."""
    parser.add_argument("function", choices=profile_names())
    parser.add_argument(
        "--policy",
        default=default_policy,
        choices=["all"] + [p.value for p in Policy],
    )
    parser.add_argument(
        "--input",
        type=_input_arg,
        default="B",
        help="'A', 'B', or a positive size ratio (record phase uses A)",
    )
    parser.add_argument("--remote", action="store_true", help="EBS storage")


def _add_cluster_args(
    parser: argparse.ArgumentParser, functions: int, hosts: int
) -> None:
    """The topology and serving-plane flags ``cluster`` and ``serve``
    share; :func:`_cluster_spec` turns them into a service spec."""
    from repro.cluster.placement import PLACEMENT_NAMES
    from repro.cluster.scheduler import SNAPSHOT_TIERS, TIER_LOCAL_NVME

    parser.add_argument("--functions", type=int, default=functions)
    parser.add_argument("--hosts", type=int, default=hosts)
    parser.add_argument(
        "--placement", default="least-loaded", choices=PLACEMENT_NAMES
    )
    parser.add_argument(
        "--tier", default=TIER_LOCAL_NVME, choices=SNAPSHOT_TIERS
    )
    parser.add_argument("--ttl-minutes", type=float, default=15.0)
    parser.add_argument("--memory-gb", type=float, default=8.0)
    parser.add_argument(
        "--max-concurrent",
        type=int,
        default=None,
        metavar="N",
        help="admission limit per host (default: unlimited)",
    )
    parser.add_argument(
        "--policy",
        default=Policy.FAASNAP.value,
        choices=[p.value for p in Policy],
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--durability",
        default=None,
        metavar="JSON",
        help="enable the snapshot durability plane (DurabilityPolicy "
        "JSON, e.g. '{\"replicas\": 2}'; '{}' enables verified "
        "restores with the defaults)",
    )
    parser.add_argument(
        "--sample-interval-ms",
        type=float,
        default=None,
        metavar="MS",
        help="virtual-time gauge sampling cadence (default: off; "
        "cluster --metrics-out samples every 100 ms)",
    )
    parser.add_argument(
        "--report-out",
        default=None,
        metavar="FILE",
        help="write every served invocation (with outcome and attempt "
        "count) plus the availability summary as JSON",
    )
    parser.add_argument(
        "--causal-trace",
        default=None,
        metavar="FILE",
        help="write the merged end-to-end causal trace (one event "
        "story per invocation; byte-identical for any --shards count)",
    )
    parser.add_argument(
        "--slo",
        default=None,
        metavar="JSON",
        help="attach an SLO monitor and print its burn-rate status "
        "after the run ('{}' for the default objectives and rules; "
        "single-heap path only)",
    )
    parser.add_argument(
        "--flight-out",
        default=None,
        metavar="FILE",
        help="arm the flight recorder and write its postmortem "
        "document (ring-buffer dumps on failure, crash and burn "
        "alerts; single-heap path only)",
    )


def _add_telemetry_outputs(parser: argparse.ArgumentParser) -> None:
    """The shared ``--trace-out`` / ``--metrics-out`` /
    ``--chrome-trace`` flags."""
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write Zipkin-flavoured JSON spans (one root per "
        "invocation, tagged per host)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write the run's telemetry registry as structured JSON",
    )
    parser.add_argument(
        "--chrome-trace",
        default=None,
        metavar="FILE",
        help="write spans as a Chrome trace_event JSON document "
        "(open in chrome://tracing or Perfetto)",
    )


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
