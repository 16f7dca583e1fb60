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


def test_every_benchmark_workload_has_a_perfbench_baseline():
    section = BASELINE["perfbench"]
    assert set(section) == {w["name"] for w in SPEC["workloads"]}
    bounded = {m["name"] for m in SPEC["end_to_end"]}
    for entry in section.values():
        assert entry["seed"] == 7 and entry["runs"] >= 5
        assert entry["metrics"] and set(entry["metrics"]) <= bounded


def test_no_wall_clock_figure_outside_experiments():
    def keys(node):
        if isinstance(node, dict):
            for key, value in node.items():
                yield key
                yield from keys(value)

    for name, section in BASELINE.items():
        if name not in ("experiments", "perfbench"):
            assert not [k for k in keys(section) if "wall" in k or "per_sec" in k]
