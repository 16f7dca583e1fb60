"""The throughput gate of ``benchmarks/perf_harness.py --perfbench``.

The gate judges ``perfbench/run.py`` stdouts against the ``perfbench``
section of ``BENCH_core.json`` with the bounds of ``BENCHMARK.json``.
These tests pin its comparison on hand-built stdouts, and check that
the committed baseline gates every benchmark workload.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BASELINE = json.loads((ROOT / "benchmarks" / "BENCH_core.json").read_text())


def _load_harness():
    spec = importlib.util.spec_from_file_location(
        "perf_harness", ROOT / "benchmarks" / "perf_harness.py"
    )
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses resolve their module through ``sys.modules``.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


harness = _load_harness()

SECTION = {
    "cluster-steady": {
        "commit": "0000000",
        "seed": 7,
        "runs": 5,
        "metrics": {"inv_per_s": 700.0},
    }
}


def stdout(workload="cluster-steady", seed=7, correct=True, inv_per_s=700.0):
    """A ``perfbench/run.py --trace 0`` stdout with these values."""
    metrics = {
        "inv_per_s": {"value": inv_per_s, "unit": "1/s"},
        "setup_s": {"value": 4.6, "unit": "s"},
        "peak_rss_mb": {"value": 342.4, "unit": "MB"},
        "sim_p50_ms": {"value": 109.167, "unit": "ms"},
        "sim_p90_ms": {"value": 841.496, "unit": "ms"},
        "ok_frac": {"value": 1.0, "unit": "share"},
    }
    lines = [
        "wall time, not scaled: median serving 0.348 s",
        f"workload {workload}: seed {seed}, 3 rounds of 276 arrivals, "
        "276 ok latency samples per round; failed_frac 0.000000",
        *(f"{name}: {m['value']} {m['unit']}" for name, m in metrics.items()),
        json.dumps(
            {"correct": correct, "attempted": 828, "failed": 0,
             "metrics": metrics}
        ),
    ]
    return "\n".join(lines) + "\n"


def failures(*texts):
    lines = harness.perfbench_gate(texts, SECTION, SPEC)
    return [line for line in lines if line.startswith("FAIL")]


def test_gate_passes_at_the_baseline():
    lines = harness.perfbench_gate([stdout()], SECTION, SPEC)
    assert lines and not failures(stdout())
    assert "cluster-steady inv_per_s" in lines[0]


def test_gate_holds_inv_per_s_to_its_benchmark_bound():
    bound = {m["name"]: m for m in SPEC["end_to_end"]}["inv_per_s"]["bound"]
    assert bound == 0.25
    assert not failures(stdout(inv_per_s=700.0 * 0.76))
    (line,) = failures(stdout(inv_per_s=700.0 * 0.74))
    assert "cluster-steady" in line and "inv_per_s" in line


@pytest.mark.parametrize(
    "text, reason",
    [
        (stdout(correct=False), "not correct"),
        (stdout(seed=8), "seed 8"),
        (stdout(workload="cluster-surge"), "cluster-surge has no perfbench"),
        ("Traceback (most recent call last):\n", "not a perfbench"),
    ],
)
def test_gate_fails_a_run_it_cannot_vouch_for(text, reason):
    (line,) = failures(text)
    assert reason in line


def test_gate_fails_a_run_without_the_gated_metric():
    traced = stdout().replace('"inv_per_s"', '"trace.inv_per_s_traced"')
    (line,) = failures(traced)
    assert "inv_per_s" in line


def test_info_lines_show_setup_and_rss_without_gating_them():
    section = {
        "cluster-steady": dict(
            SECTION["cluster-steady"],
            info={"setup_s": 2.3, "peak_rss_mb": 111.0},
        )
    }
    # Twice the recorded memory and set-up time: shown, never failed.
    text = stdout().replace("342.4", "222.0")
    lines = harness.perfbench_gate([text], section, SPEC)
    assert not [line for line in lines if line.startswith("FAIL")]
    info = [line for line in lines if line.startswith("info:")]
    assert info == [
        "info: cluster-steady setup_s 4.6 (baseline 2.3, +100.0%)",
        "info: cluster-steady peak_rss_mb 222 (baseline 111, +100.0%)",
    ]
    traced = text.replace('"peak_rss_mb"', '"trace.peak"')
    lines = harness.perfbench_gate([traced], section, SPEC)
    assert "info: cluster-steady peak_rss_mb nan (baseline 111, +nan%)" in lines


def test_update_records_gated_and_info_medians(tmp_path):
    paths = []
    for index, rate in enumerate((690.0, 700.0, 720.0)):
        path = tmp_path / f"run{index}.txt"
        path.write_text(stdout(inv_per_s=rate))
        paths.append(path)
    baseline = {}
    harness.record_perfbench(paths, baseline)
    entry = baseline["perfbench"]["cluster-steady"]
    assert entry["runs"] == 3 and entry["seed"] == 7
    assert entry["metrics"] == {"inv_per_s": 700.0}
    assert entry["info"] == {"setup_s": 4.6, "peak_rss_mb": 342.4}


def test_every_benchmark_workload_has_a_perfbench_baseline():
    section = BASELINE["perfbench"]
    assert set(section) == {w["name"] for w in SPEC["workloads"]}
    bounded = {m["name"] for m in SPEC["end_to_end"]}
    for entry in section.values():
        assert entry["seed"] == 7 and entry["runs"] >= 5
        assert entry["metrics"] and set(entry["metrics"]) <= bounded
        assert set(entry["info"]) == set(harness.INFO_METRICS)


def test_no_wall_clock_figure_outside_experiments():
    def keys(node):
        if isinstance(node, dict):
            for key, value in node.items():
                yield key
                yield from keys(value)

    for name, section in BASELINE.items():
        if name not in ("experiments", "perfbench"):
            assert not [k for k in keys(section) if "wall" in k or "per_sec" in k]
