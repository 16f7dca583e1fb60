"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_functions_command(capsys):
    assert main(["functions"]) == 0
    out = capsys.readouterr().out
    assert "hello-world" in out
    assert "recognition" in out
    assert "Table 2" in out


def test_invoke_command_single_policy(capsys):
    code = main(
        ["invoke", "hello-world", "--policy", "faasnap", "--input", "A"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "faasnap" in out
    assert "hello-world" in out


def test_invoke_command_ratio_input(capsys):
    code = main(
        ["invoke", "hello-world", "--policy", "cached", "--input", "0.5"]
    )
    assert code == 0
    assert "cached" in capsys.readouterr().out


def test_invoke_rejects_unknown_function():
    with pytest.raises(SystemExit):
        main(["invoke", "nope"])


@pytest.mark.parametrize("command", ["invoke", "telemetry"])
@pytest.mark.parametrize("value", ["foo", "0", "-1"])
def test_bad_input_is_a_usage_error(command, value, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "hello-world", "--input", value])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "argument --input" in err
    assert "positive size ratio" in err


def test_experiment_unknown_id(capsys):
    assert main(["experiment", "fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_experiment_table2(capsys):
    assert main(["experiment", "table2"]) == 0
    assert "working sets" in capsys.readouterr().out


def test_fleet_command(capsys):
    code = main(
        [
            "fleet",
            "--functions",
            "10",
            "--hours",
            "0.5",
            "--policy",
            "faasnap",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "mean latency" in out
    assert "warm %" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


# -- telemetry outputs -------------------------------------------------


def test_telemetry_command_renders_report(capsys):
    code = main(["telemetry", "hello-world", "--policy", "faasnap"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Profiler phases" in out
    assert "(unattributed)" in out
    assert "Page-cache hit rates" in out
    assert "Sampled gauges" in out


def test_telemetry_command_writes_all_outputs(tmp_path, capsys):
    import json

    metrics = tmp_path / "metrics.json"
    chrome = tmp_path / "chrome.json"
    prom = tmp_path / "metrics.prom"
    code = main(
        [
            "telemetry",
            "hello-world",
            "--metrics-out",
            str(metrics),
            "--chrome-trace",
            str(chrome),
            "--prometheus-out",
            str(prom),
        ]
    )
    assert code == 0
    capsys.readouterr()
    doc = json.loads(metrics.read_text())
    assert doc["schema"] == "repro.telemetry/1"
    assert "sim.engine.events" in doc["counters"]
    assert doc["samples"]["times_us"]
    trace = json.loads(chrome.read_text())
    assert trace["traceEvents"]
    assert {"ph", "ts", "dur", "pid", "tid", "name"} <= set(
        trace["traceEvents"][0]
    )
    assert "# TYPE" in prom.read_text()


def test_invoke_metrics_out(tmp_path, capsys):
    import json

    path = tmp_path / "m.json"
    code = main(
        [
            "invoke",
            "hello-world",
            "--policy",
            "faasnap",
            "--metrics-out",
            str(path),
        ]
    )
    assert code == 0
    capsys.readouterr()
    doc = json.loads(path.read_text())
    assert doc["counters"]["host0.invocations"] == 1


def test_cluster_metrics_out_enables_sampler(tmp_path, capsys):
    import json

    path = tmp_path / "cluster.json"
    code = main(
        [
            "cluster",
            "--functions",
            "2",
            "--hours",
            "0.05",
            "--hosts",
            "2",
            "--metrics-out",
            str(path),
        ]
    )
    assert code == 0
    capsys.readouterr()
    doc = json.loads(path.read_text())
    assert "cluster.scheduler.invocations" in doc["counters"]
    # --metrics-out without --sample-interval-ms defaults to 100 ms.
    assert doc["samples"]["interval_us"] == 100_000.0


def test_output_path_with_missing_directory_fails(tmp_path, capsys):
    path = tmp_path / "no" / "such" / "dir" / "m.json"
    code = main(
        [
            "invoke",
            "hello-world",
            "--policy",
            "faasnap",
            "--metrics-out",
            str(path),
        ]
    )
    assert code == 2
    assert "does not exist" in capsys.readouterr().err
    assert not path.exists()


def test_experiment_metrics_out_merges_shards(tmp_path, capsys):
    import json

    path = tmp_path / "merged.json"
    code = main(
        ["experiment", "fig2", "--metrics-out", str(path)]
    )
    assert code == 0
    capsys.readouterr()
    doc = json.loads(path.read_text())
    assert doc["shards"] >= 1
    assert doc["virtual_time_us"] > 0
    assert "gauges" not in doc


def test_cluster_report_out_writes_serving_report(tmp_path, capsys):
    import json

    path = tmp_path / "report.json"
    code = main(
        [
            "cluster",
            "--functions",
            "2",
            "--hours",
            "0.5",
            "--hosts",
            "2",
            "--seed",
            "0",
            "--report-out",
            str(path),
        ]
    )
    assert code == 0
    capsys.readouterr()
    doc = json.loads(path.read_text())
    assert doc["schema"] == "repro.fleet-report/1"
    assert doc["availability"] == 1.0
    assert doc["invocations"]
    assert all(
        entry["outcome"] == "ok" for entry in doc["invocations"]
    )
    assert set(doc["host_failures"]) == {"host0", "host1"}


@pytest.mark.parametrize("durability", [None, "{}"])
def test_cluster_report_matches_a_hand_built_simulator(
    durability, tmp_path, capsys
):
    """``repro cluster`` builds its run from a service spec: the fleet
    and the arrivals are seeded by ``--seed``, the run seed keeps the
    ``ClusterConfig`` default of 0."""
    import json

    from repro.cluster import ClusterConfig, ClusterSimulator
    from repro.core import Policy
    from repro.faults import DurabilityPolicy
    from repro.fleet import generate_arrivals, synthesize_fleet
    from repro.fleet.workload import US_PER_HOUR, US_PER_MINUTE
    from repro.metrics.exporters import fleet_report_doc

    path = tmp_path / "report.json"
    argv = ["cluster", "--functions", "2", "--hours", "0.25", "--hosts",
            "2", "--seed", "3", "--report-out", str(path)]
    if durability is not None:
        argv += ["--durability", durability]
    assert main(argv) == 0
    capsys.readouterr()

    fleet = synthesize_fleet(2, seed=3, profile_names=("json", "pyaes"))
    trace = generate_arrivals(fleet, 0.25 * US_PER_HOUR, seed=3)
    extra = {}
    if durability is not None:
        extra["durability"] = DurabilityPolicy.from_dict({"enabled": True})
    config = ClusterConfig(
        num_hosts=2,
        placement="least-loaded",
        restore_policy=Policy.FAASNAP,
        keep_alive_ttl_us=15 * US_PER_MINUTE,
        memory_budget_mb=8 * 1024,
        snapshot_tier="local-nvme",
        **extra,
    )
    report = ClusterSimulator(fleet, config).run(trace)
    assert report.count() > 0
    assert json.loads(path.read_text()) == json.loads(
        json.dumps(fleet_report_doc(report))
    )


def _serve_script(tmp_path, text):
    script = tmp_path / "session.cmds"
    script.write_text(text)
    return ["serve", "--functions", "2", "--hosts", "1", "--script",
            str(script)]


def test_serve_script_with_a_malformed_argument_exits_2(tmp_path, capsys):
    argv = _serve_script(tmp_path, "advance 1000\narm 5\nadvance 1000\n")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error: bad arguments for 'arm'" in err


def test_serve_closes_its_arrivals_file(tmp_path, monkeypatch, capsys):
    import builtins

    arrivals = tmp_path / "arrivals.jsonl"
    arrivals.write_text('{"time_us": 1000.0, "function": "fn0000"}\n')
    opened = []
    real_open = builtins.open

    def tracking_open(file, *args, **kwargs):
        handle = real_open(file, *args, **kwargs)
        opened.append((str(file), handle))
        return handle

    monkeypatch.setattr(builtins, "open", tracking_open)
    argv = _serve_script(tmp_path, "advance 60000\n")
    assert main(argv + ["--arrivals", str(arrivals)]) == 0
    assert "served 1 invocation(s)" in capsys.readouterr().out
    handles = [h for name, h in opened if name == str(arrivals)]
    assert len(handles) == 1 and handles[0].closed


def test_every_command_is_in_the_repl_help_and_the_docs(monkeypatch, capsys):
    import io
    import re
    from pathlib import Path

    from repro.service import COMMANDS

    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    assert main(["serve", "--functions", "2", "--hosts", "1",
                 "--arrivals", "none"]) == 0
    help_text = capsys.readouterr().err
    doc = Path(__file__).resolve().parent.parent / "docs" / "service.md"
    section = doc.read_text().split("## Commands", 1)[1].split("\n## ", 1)[0]
    documented = set()
    for row in section.splitlines():
        if row.startswith("| `"):
            documented.update(re.findall(r"`([a-z-]+)", row.split("|")[1]))
    for name in COMMANDS:
        assert re.search(rf"^\s+{name}(\s|$)", help_text, re.M), name
        assert name in documented, name
