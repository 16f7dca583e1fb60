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


def _write_trace(tracer, path: str) -> int:
    return _write_output(
        path, tracer.to_json(), f"{len(tracer.roots)} trace(s)"
    )


def _write_chrome_trace(tracer, path: str) -> int:
    from repro.metrics.exporters import to_chrome_trace

    doc = to_chrome_trace(tracer)
    return _write_output(
        path,
        json.dumps(doc, indent=2, sort_keys=True),
        f"chrome trace ({len(doc['traceEvents'])} events)",
    )


def _write_metrics(registry, path: str, sampler=None, total_us=None) -> int:
    from repro.metrics.exporters import to_json_doc

    doc = to_json_doc(registry, sampler=sampler, total_us=total_us)
    return _write_output(
        path,
        json.dumps(doc, indent=2, sort_keys=True),
        f"metrics ({len(doc['counters']) + len(doc['gauges']) + len(doc['histograms'])} instruments)",
    )


def _emit_run_outputs(
    args: argparse.Namespace, registry, tracer, sampler=None, total_us=None
) -> int:
    """Write whichever of the shared output flags were given."""
    status = 0
    if getattr(args, "trace_out", None) and tracer is not None:
        status = _write_trace(tracer, args.trace_out) or status
    if getattr(args, "chrome_trace", None) and tracer is not None:
        status = _write_chrome_trace(tracer, args.chrome_trace) or status
    if getattr(args, "metrics_out", None) and registry is not None:
        status = (
            _write_metrics(
                registry, args.metrics_out, sampler=sampler, total_us=total_us
            )
            or status
        )
    return status


def _observability_planes(
    args: argparse.Namespace, causal: bool = False, slo_config=None
) -> tuple:
    """Fresh ``(causal tracer, SLO monitor, flight recorder)`` for one
    run, each ``None`` unless asked for: ``causal`` and ``slo_config``
    (a parsed ``--slo`` document) come from the command's own flags,
    the flight recorder from ``--flight-out``."""
    tracer = slo = flight = None
    if causal:
        from repro.metrics.causal import CausalTracer

        tracer = CausalTracer()
    if slo_config is not None:
        from repro.metrics.slo import SloMonitor

        slo = SloMonitor.from_dict(slo_config)
    if args.flight_out:
        from repro.metrics.flight import FlightRecorder

        flight = FlightRecorder()
    return tracer, slo, flight


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
        return _write_output(
            args.metrics_out,
            json.dumps(merged, indent=2, sort_keys=True),
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
    from repro.cluster import ClusterConfig, ClusterSimulator
    from repro.fleet import (
        CostModel,
        StartKind,
        generate_arrivals,
        synthesize_fleet,
    )
    from repro.fleet.workload import US_PER_HOUR, US_PER_MINUTE

    fleet = synthesize_fleet(
        args.functions, seed=args.seed, profile_names=("json", "pyaes")
    )
    trace = generate_arrivals(fleet, args.hours * US_PER_HOUR, seed=args.seed)
    policy = Policy(args.policy)
    config = ClusterConfig(
        num_hosts=1,
        restore_policy=policy,
        keep_alive_ttl_us=args.ttl_minutes * US_PER_MINUTE,
        memory_budget_mb=args.memory_gb * 1024,
    )
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


def _cmd_cluster(args: argparse.Namespace) -> int:
    from repro.cluster import ClusterConfig, ClusterSimulator
    from repro.faults import DurabilityPolicy
    from repro.fleet import StartKind, generate_arrivals, synthesize_fleet
    from repro.fleet.workload import US_PER_HOUR, US_PER_MINUTE
    from repro.metrics.tracing import Tracer

    fleet = synthesize_fleet(
        args.functions, seed=args.seed, profile_names=("json", "pyaes")
    )
    trace = generate_arrivals(fleet, args.hours * US_PER_HOUR, seed=args.seed)
    doc = _durability_doc(args)
    durability = DurabilityPolicy.from_dict(doc) if doc is not None else None
    config = ClusterConfig(
        num_hosts=args.hosts,
        placement=args.placement,
        restore_policy=Policy(args.policy),
        keep_alive_ttl_us=args.ttl_minutes * US_PER_MINUTE,
        memory_budget_mb=args.memory_gb * 1024,
        snapshot_tier=args.tier,
        max_concurrent_per_host=args.max_concurrent,
        **({"durability": durability} if durability is not None else {}),
    )
    tracer = Tracer() if args.trace_out or args.chrome_trace else None
    sampler_interval_us = (
        args.sample_interval_ms * 1000.0
        if args.sample_interval_ms is not None
        else (100_000.0 if args.metrics_out else None)
    )
    sharded = args.shards > 0
    causal, slo, flight = _observability_planes(
        args,
        causal=bool(args.causal_trace or (sharded and args.chrome_trace)),
        slo_config=json.loads(args.slo) if args.slo is not None else None,
    )
    if sharded:
        from repro.cluster import ShardedClusterSimulator

        if args.trace_out or args.sample_interval_ms is not None:
            print(
                "note: --trace-out/--sample-interval-ms are per-heap "
                "instruments; ignored with --shards"
            )
        tracer = None
        if slo is not None or flight is not None:
            print(
                "note: --slo/--flight-out ride the single-heap serving "
                "plane; ignored with --shards"
            )
            slo = flight = None
        simulator = ShardedClusterSimulator(
            fleet,
            config,
            shards=args.shards,
            window_us=args.window_ms * 1000.0,
        )
        report = simulator.run(trace, causal=causal)
    else:
        simulator = ClusterSimulator(fleet, config)
        report = simulator.run(
            trace,
            tracer=tracer,
            sampler_interval_us=sampler_interval_us,
            causal=causal,
            slo=slo,
            flight=flight,
        )
    if args.report_out:
        from repro.metrics.exporters import fleet_report_doc

        status = _write_output(
            args.report_out,
            json.dumps(fleet_report_doc(report), indent=2, sort_keys=True),
            f"serving report ({report.count()} invocations)",
        )
        if status:
            return status
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
    if durability is not None:
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
    if causal is not None and args.causal_trace:
        status = _write_output(
            args.causal_trace,
            causal.to_json(),
            f"causal trace ({len(causal.document()['invocations'])} "
            "invocations)",
        )
        if status:
            return status
    if slo is not None:
        from repro.metrics.slo import render_slo_status

        # Observability time is serving-relative (t=0 at prep end).
        now = simulator.env.now - simulator._obs_epoch_us
        print(render_slo_status(slo.status(now)))
    if flight is not None:
        status = _write_output(
            args.flight_out,
            flight.to_json(),
            f"flight recorder ({len(flight.postmortems)} postmortem(s), "
            f"{flight.dump_triggers} trigger(s))",
        )
        if status:
            return status
    if sharded:
        if args.metrics_out:
            status = _write_output(
                args.metrics_out,
                json.dumps(
                    simulator.merged_metrics, indent=2, sort_keys=True
                ),
                "merged shard telemetry",
            )
            if status:
                return status
        if args.chrome_trace:
            from repro.metrics.exporters import causal_to_chrome_trace

            status = _write_output(
                args.chrome_trace,
                json.dumps(
                    causal_to_chrome_trace(causal.document()),
                    indent=2,
                    sort_keys=True,
                ),
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
    return _emit_run_outputs(
        args,
        simulator.registry,
        tracer,
        sampler=simulator.sampler,
        total_us=simulator.env.now,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.fleet.workload import US_PER_MINUTE, JsonLinesArrivalSource
    from repro.service import (
        CommandError,
        DrainCommand,
        JournalWriter,
        ServiceError,
        StatusCommand,
        build_service,
        parse_command,
        replay_journal,
    )

    if args.replay:
        outcome = replay_journal(args.replay)
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

    interactive = args.script is None
    if args.arrivals == "-" and interactive:
        print(
            "error: --arrivals - (stdin) requires --script "
            "(the REPL reads commands from stdin)",
            file=sys.stderr,
        )
        return 2
    arrival_source = None
    if args.arrivals == "poisson":
        source_stanza = {"kind": "poisson", "seed": args.seed}
    elif args.arrivals == "none":
        source_stanza = {"kind": "none"}
    elif args.arrivals == "-":
        source_stanza = {"kind": "external"}
        arrival_source = JsonLinesArrivalSource(sys.stdin)
    else:
        source_stanza = {"kind": "external"}
        arrival_source = JsonLinesArrivalSource(
            open(args.arrivals, "r", encoding="utf-8")
        )
    spec = {
        "functions": args.functions,
        "fleet_seed": args.seed,
        "hosts": args.hosts,
        "placement": args.placement,
        "policy": args.policy,
        "tier": args.tier,
        "ttl_us": args.ttl_minutes * US_PER_MINUTE,
        "memory_mb": args.memory_gb * 1024,
        "max_concurrent": args.max_concurrent,
        "seed": args.seed,
        "sampler_interval_us": (
            args.sample_interval_ms * 1000.0
            if args.sample_interval_ms is not None
            else None
        ),
        "source": source_stanza,
        "slo": json.loads(args.slo) if args.slo is not None else None,
        # The raw dicts (not the monitor or the policy) go in the spec
        # so the journal header stays JSON and replays rebuild them.
        "durability": _durability_doc(args),
    }
    causal, _, flight = _observability_planes(
        args, causal=bool(args.causal_trace)
    )
    journal = JournalWriter(args.journal) if args.journal else None
    service = build_service(
        spec,
        arrival_source=arrival_source,
        journal=journal,
        causal=causal,
        flight=flight,
    )

    if interactive:
        lines = _repl_lines()
    else:
        with open(args.script, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    status = 0
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            command = parse_command(line)
            result = service.execute(command)
        except (CommandError, ServiceError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            if not interactive:
                status = 2
                break
            continue
        print(json.dumps(result, sort_keys=True, default=str))
        if isinstance(command, DrainCommand):
            break
    if status == 0 and service.report is None:
        # Stream ended without an explicit drain: serve out what is
        # pending so the run always produces a complete report.
        service.execute(DrainCommand())
    if journal is not None:
        journal.close()
    if service.report is not None:
        report = service.report
        print(
            f"served {len(report.served)} invocation(s), "
            f"mean latency {report.mean_latency_us() / 1000:.2f} ms, "
            f"final state {json.dumps(service.execute(StatusCommand()), sort_keys=True, default=str)}"
        )
        if args.report_out:
            from repro.metrics.exporters import fleet_report_doc

            written = _write_output(
                args.report_out,
                json.dumps(fleet_report_doc(report), indent=2, sort_keys=True),
                f"serving report ({len(report.served)} invocations)",
            )
            if written:
                return written
    if causal is not None:
        written = _write_output(
            args.causal_trace,
            causal.to_json(),
            f"causal trace ({len(causal.document()['invocations'])} "
            f"invocations)",
        )
        if written:
            return written
    if service.slo is not None:
        from repro.metrics.slo import render_slo_status

        doc, _ = service.slo_status()
        print(render_slo_status(doc))
    if flight is not None:
        written = _write_output(
            args.flight_out,
            flight.to_json(),
            f"flight recorder ({len(flight.postmortems)} postmortem(s), "
            f"{flight.dump_triggers} trigger(s))",
        )
        if written:
            return written
    return status


def _repl_lines():
    """Prompted line iterator for the interactive serve REPL."""
    print(
        "live cluster service — commands: advance MS | inject T:FN... | "
        "add-host | drain-host H | undrain-host H | swap-placement P | "
        "arm JSON | disarm | set-keepalive MS | snapshot-telemetry | "
        "set-slo JSON | slo-status | scrub | durability-status | "
        "status | drain (^D quits, draining first)",
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
        _, slo, flight = _observability_planes(args, slo_config=slo_config)
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
            _write_output(
                args.flight_out,
                json.dumps(doc, indent=2, sort_keys=True),
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
            _write_output(
                args.report_out,
                json.dumps(doc, indent=2, sort_keys=True),
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
    invoke.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write Zipkin-flavoured JSON spans of each invocation",
    )
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
    from repro.cluster.placement import PLACEMENT_NAMES
    from repro.cluster.scheduler import SNAPSHOT_TIERS, TIER_LOCAL_NVME

    cluster.add_argument("--functions", type=int, default=12)
    cluster.add_argument("--hours", type=float, default=0.5)
    cluster.add_argument("--hosts", type=int, default=4)
    cluster.add_argument(
        "--placement", default="least-loaded", choices=PLACEMENT_NAMES
    )
    cluster.add_argument(
        "--tier", default=TIER_LOCAL_NVME, choices=SNAPSHOT_TIERS
    )
    cluster.add_argument("--ttl-minutes", type=float, default=15.0)
    cluster.add_argument("--memory-gb", type=float, default=8.0)
    cluster.add_argument(
        "--max-concurrent",
        type=int,
        default=None,
        metavar="N",
        help="admission limit per host (default: unlimited)",
    )
    cluster.add_argument(
        "--policy",
        default=Policy.FAASNAP.value,
        choices=[p.value for p in Policy],
    )
    cluster.add_argument("--seed", type=int, default=1)
    cluster.add_argument(
        "--durability",
        default=None,
        metavar="JSON",
        help="enable the snapshot durability subsystem "
        "(DurabilityPolicy JSON, e.g. '{\"enabled\": true, "
        "\"replicas\": 2}'; '{}' enables verified restores with "
        "the defaults)",
    )
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
    cluster.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write Zipkin-flavoured JSON spans (tagged per host)",
    )
    _add_telemetry_outputs(cluster)
    cluster.add_argument(
        "--sample-interval-ms",
        type=float,
        default=None,
        metavar="MS",
        help="virtual-time gauge sampling cadence (default: 100 ms "
        "when --metrics-out is given, otherwise off)",
    )
    cluster.add_argument(
        "--report-out",
        default=None,
        metavar="FILE",
        help="write every served invocation (with outcome and attempt "
        "count) plus the availability summary as JSON",
    )
    cluster.add_argument(
        "--causal-trace",
        default=None,
        metavar="FILE",
        help="write the merged end-to-end causal trace (one event "
        "story per invocation; byte-identical for any --shards count)",
    )
    cluster.add_argument(
        "--slo",
        default=None,
        metavar="JSON",
        help="attach an SLO monitor and print burn-rate status after "
        "the run ('{}' for the default objectives/rules; single-heap "
        "path only)",
    )
    cluster.add_argument(
        "--flight-out",
        default=None,
        metavar="FILE",
        help="arm the flight recorder and write its postmortem "
        "document (ring-buffer dumps on failure/crash/burn alerts; "
        "single-heap path only)",
    )
    cluster.set_defaults(handler=_cmd_cluster)

    serve = sub.add_parser(
        "serve",
        help="live service mode: drive the cluster with a journaled "
        "command stream (script file or interactive REPL)",
    )
    serve.add_argument("--functions", type=int, default=8)
    serve.add_argument("--hosts", type=int, default=2)
    serve.add_argument(
        "--placement", default="least-loaded", choices=PLACEMENT_NAMES
    )
    serve.add_argument(
        "--tier", default=TIER_LOCAL_NVME, choices=SNAPSHOT_TIERS
    )
    serve.add_argument("--ttl-minutes", type=float, default=15.0)
    serve.add_argument("--memory-gb", type=float, default=8.0)
    serve.add_argument(
        "--max-concurrent",
        type=int,
        default=None,
        metavar="N",
        help="admission limit per host (default: unlimited)",
    )
    serve.add_argument(
        "--policy",
        default=Policy.FAASNAP.value,
        choices=[p.value for p in Policy],
    )
    serve.add_argument("--seed", type=int, default=1)
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
    serve.add_argument(
        "--sample-interval-ms",
        type=float,
        default=None,
        metavar="MS",
        help="virtual-time gauge sampling cadence (default: off)",
    )
    serve.add_argument(
        "--report-out",
        default=None,
        metavar="FILE",
        help="write the final serving report as JSON after drain",
    )
    serve.add_argument(
        "--slo",
        default=None,
        metavar="JSON",
        help="install an SLO monitor at build time ('{}' for the "
        "defaults; recorded in the journal spec, so replays rebuild "
        "it); inspect with the slo-status command",
    )
    serve.add_argument(
        "--durability",
        default=None,
        metavar="JSON",
        help="arm the snapshot durability plane ('{}' for verified "
        "restores with the defaults; recorded in the journal spec, so "
        "replays rebuild it); inspect with durability-status, sweep "
        "with scrub",
    )
    serve.add_argument(
        "--causal-trace",
        default=None,
        metavar="FILE",
        help="record end-to-end causal traces and write the merged "
        "document after the run",
    )
    serve.add_argument(
        "--flight-out",
        default=None,
        metavar="FILE",
        help="arm the flight recorder and write its postmortem "
        "document after the run",
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
    telemetry.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write Zipkin-flavoured JSON spans of each invocation",
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


def _add_telemetry_outputs(parser: argparse.ArgumentParser) -> None:
    """The shared ``--metrics-out`` / ``--chrome-trace`` flags."""
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
