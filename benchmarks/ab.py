#!/usr/bin/env python3
"""A/B pairs of the repository's benchmark: a base revision against
this checkout.

Usage:

    python benchmarks/ab.py --base REV --workload W --seeds 7,11 --pairs N

The base side is ``REV``'s committed files, extracted with ``git
archive``; the change side is the files of this checkout that git
would commit, uncommitted edits included. Each is copied into a
directory of its own, ``base`` and ``edit`` under one temporary
directory that is removed on exit: peak RSS depends on the length of
the checkout's path (on cluster-steady, 0.65 MB more from a path of 19
characters than from one of 8), so both sides run from paths of one
length, each from a fresh copy. Each pair
runs ``perfbench/run.py --workload W --seed S --seconds 10 --trace 0``
once on each side, one after the other, and the side that runs first
alternates from pair to pair (over all seeds), so a drift in the
machine's load favours neither.

For each seed it prints every end-to-end metric's median and quartiles
per side and the pairs the change won (better in the metric's
direction, from ``BENCHMARK.json``) and lost. It ends with one line
per metric:

    RESOLVED <metric> better|worse
    UNRESOLVED <metric>

A metric is resolved on a seed when the change won (or lost) at least
nine pairs in ten (and five at least) and its median differs from the
base's, in the same direction, by more than the base's interquartile
range; it is resolved when it is resolved the same way on every seed.
The exit code is 1 when a run failed or was not ``correct``.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: Share of pairs one side must win for a resolved verdict.
WIN_SHARE = 0.9
#: Fewer pairs than this resolve nothing: their quartiles mean little.
MIN_PAIRS = 5


def extract(rev: str, into: Path) -> str:
    """Extract ``rev``'s committed files into ``into``; returns the
    commit's short hash."""
    commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--short", f"{rev}^{{commit}}"],
        check=True,
        capture_output=True,
        text=True,
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", commit],
        check=True,
        capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)
    return commit


def copy_checkout(into: Path) -> None:
    """Copy the files of this checkout that git would commit, tracked
    or not ignored, into ``into``."""
    names = subprocess.run(
        [
            "git",
            "-C",
            str(ROOT),
            "ls-files",
            "-z",
            "--cached",
            "--others",
            "--exclude-standard",
        ],
        check=True,
        capture_output=True,
        text=True,
    ).stdout.split("\0")
    for name in names:
        source = ROOT / name
        if name and source.is_file():
            target = into / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def run_side(
    root: Path, workload: str, seed: int
) -> Tuple[bool, Dict[str, float]]:
    """One benchmark run in the checkout at ``root``: whether it
    exited 0 and read ``correct`` with no failed operation, and its
    end-to-end metrics."""
    done = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            "10",
            "--trace",
            "0",
        ],
        cwd=root,
        capture_output=True,
        text=True,
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(done.stdout + done.stderr)
        return False, {}
    ok = done.returncode == 0 and result["correct"] is True
    ok = ok and not result["failed"]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return ok, metrics


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(
    base: Sequence[float], change: Sequence[float], higher_is_better: bool
) -> Tuple[int, int, Optional[str]]:
    """The pairs the change won and lost, and ``"better"``, ``"worse"``
    or ``None`` (unresolved): a side must win at least
    :data:`WIN_SHARE` of the pairs, and :data:`MIN_PAIRS`, and its
    median beat the other's by more than the base's interquartile
    range."""
    sign = 1.0 if higher_is_better else -1.0
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    losses = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    q1, base_median, q3 = quartiles(base)
    shift = sign * (statistics.median(change) - base_median)
    needed = max(MIN_PAIRS, math.ceil(WIN_SHARE * len(base)))
    if wins >= needed and shift > q3 - q1:
        return wins, losses, "better"
    if losses >= needed and -shift > q3 - q1:
        return wins, losses, "worse"
    return wins, losses, None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--base", required=True, help="base revision")
    parser.add_argument("--workload", required=True, help="perfbench workload")
    parser.add_argument("--seeds", default="7", help="comma-separated seeds")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per seed")
    args = parser.parse_args(argv)
    seeds = [int(seed) for seed in args.seeds.split(",")]
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    higher = {m["name"]: m["better"] == "higher" for m in spec["end_to_end"]}
    workdir = Path(tempfile.mkdtemp(prefix="ab-"))
    healthy = True
    #: seed -> metric -> side -> values, in pair order.
    runs: Dict[int, Dict[str, Dict[str, List[float]]]] = {}
    try:
        sides = {"base": workdir / "base", "change": workdir / "edit"}
        commit = extract(args.base, sides["base"])
        copy_checkout(sides["change"])
        print(f"base {commit} against this checkout: {args.workload}, "
              f"seeds {args.seeds}, {args.pairs} pairs each")
        turn = 0
        for seed in seeds:
            per_metric = runs[seed] = {}
            for pair in range(args.pairs):
                order = ("base", "change") if turn % 2 == 0 else ("change", "base")
                turn += 1
                read = {}
                for side in order:
                    ok, metrics = run_side(sides[side], args.workload, seed)
                    healthy = healthy and ok
                    if not ok:
                        print(f"seed {seed} pair {pair + 1}: {side} run failed")
                    read[side] = metrics
                for name in read["base"].keys() & read["change"].keys():
                    values = per_metric.setdefault(name, {"base": [], "change": []})
                    values["base"].append(read["base"][name])
                    values["change"].append(read["change"][name])
                shown = read["base"].get("inv_per_s"), read["change"].get("inv_per_s")
                print(f"seed {seed} pair {pair + 1}/{args.pairs} "
                      f"({order[0]} first): inv_per_s {shown[0]} -> {shown[1]}",
                      flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    verdicts: Dict[str, List[Optional[str]]] = {}
    for seed, per_metric in runs.items():
        for name in sorted(per_metric):
            base, change = per_metric[name]["base"], per_metric[name]["change"]
            wins, losses, outcome = verdict(base, change, higher.get(name, True))
            verdicts.setdefault(name, []).append(outcome)
            bq = quartiles(base)
            cq = quartiles(change)
            print(
                f"seed {seed} {name}: base {bq[1]:.6g} [{bq[0]:.6g}-{bq[2]:.6g}] "
                f"change {cq[1]:.6g} [{cq[0]:.6g}-{cq[2]:.6g}] "
                f"({(cq[1] - bq[1]) / bq[1] * 100 if bq[1] else 0.0:+.1f}%), "
                f"change better in {wins}/{len(base)}, "
                f"worse in {losses}/{len(base)}"
            )
    for name in sorted(verdicts):
        outcomes = verdicts[name]
        if outcomes[0] is not None and outcomes.count(outcomes[0]) == len(seeds):
            print(f"RESOLVED {name} {outcomes[0]}")
        else:
            print(f"UNRESOLVED {name}")
    if not healthy:
        print("some runs failed or were not correct", file=sys.stderr)
    return 0 if healthy else 1


if __name__ == "__main__":
    sys.exit(main())
