"""Figure 10: performance with bursty workloads (§6.6).

1..64 simultaneous invocations of hello-world and json, restoring
either the same snapshot (one bursty application) or different
snapshots (many applications), under Firecracker / REAP / FaaSnap.
Host CPU slots are modelled so the 64-way burst saturates the CPU as
in the paper.

Per the artifact appendix (E3 runs ``test-2inputs.json``), the record
phase uses input A and the burst invocations use input B — which is
why the paper notes REAP suffers for json, "whose working set has
more variance".
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.policies import Policy
from repro.core.restore import C5D_METAL_CPU_SLOTS, PlatformConfig
from repro.experiments.common import fresh_platform
from repro.experiments.runner import parallel_map
from repro.metrics.report import render_table
from repro.metrics.stats import mean, stddev
from repro.workloads.base import INPUT_A
from repro.workloads.registry import get_profile

POLICIES = (Policy.FIRECRACKER, Policy.REAP, Policy.FAASNAP)
DEFAULT_PARALLELISMS = (1, 4, 16, 64)
DEFAULT_FUNCTIONS = ("hello-world", "json")

BurstKey = Tuple[str, str, Policy, int]  # function, mode, policy, parallelism


@dataclass
class BurstPoint:
    mean_ms: float
    std_ms: float
    max_ms: float


@dataclass
class Fig10Result:
    points: Dict[BurstKey, BurstPoint] = field(default_factory=dict)
    parallelisms: Tuple[int, ...] = DEFAULT_PARALLELISMS
    functions: Tuple[str, ...] = DEFAULT_FUNCTIONS


def _run_curve(
    payload: Tuple[PlatformConfig, str, str, Tuple[int, ...]],
) -> Dict[BurstKey, BurstPoint]:
    """One (mode, function) curve on its own platform (pool worker).

    A fresh platform per curve keeps snapshot files and cache state
    independent across curves — which is also what makes the curves
    safe to fan out.
    """
    config, name, mode, parallelisms = payload
    platform, handles = fresh_platform(config, functions=(name,))
    clones = (
        platform.make_clones(handles[name], max(parallelisms))
        if mode == "diff"
        else None
    )
    test_input = get_profile(name).input_b()
    points: Dict[BurstKey, BurstPoint] = {}
    for policy in POLICIES:
        for parallelism in parallelisms:
            results = platform.invoke_burst(
                handles[name],
                test_input,
                policy,
                parallelism=parallelism,
                same_snapshot=(mode == "same"),
                record_input=INPUT_A,
                clones=clones,
            )
            totals = [r.total_ms for r in results]
            points[(name, mode, policy, parallelism)] = BurstPoint(
                mean_ms=mean(totals),
                std_ms=stddev(totals),
                max_ms=max(totals),
            )
    return points


def run(
    config: Optional[PlatformConfig] = None,
    functions: Sequence[str] = DEFAULT_FUNCTIONS,
    parallelisms: Sequence[int] = DEFAULT_PARALLELISMS,
    jobs: Optional[int] = None,
) -> Fig10Result:
    if config is None:
        config = PlatformConfig()
    if config.cpu_slots is None:
        config = dataclasses.replace(config, cpu_slots=C5D_METAL_CPU_SLOTS)
    result = Fig10Result(
        parallelisms=tuple(parallelisms), functions=tuple(functions)
    )
    payloads = [
        (config, name, mode, tuple(parallelisms))
        for mode in ("same", "diff")
        for name in functions
    ]
    for points in parallel_map(_run_curve, payloads, jobs):
        result.points.update(points)
    return result


def format_table(result: Fig10Result) -> str:
    blocks: List[str] = []
    for mode in ("same", "diff"):
        for name in result.functions:
            rows = []
            for policy in POLICIES:
                row: List[object] = [policy.value]
                for parallelism in result.parallelisms:
                    point = result.points.get((name, mode, policy, parallelism))
                    row.append(point.mean_ms if point else float("nan"))
                rows.append(row)
            blocks.append(
                render_table(
                    ["system"]
                    + [f"p={p}_ms" for p in result.parallelisms],
                    rows,
                    title=(
                        f"Figure 10: {name}, "
                        f"{'same snapshot' if mode == 'same' else 'different snapshots'}"
                        " (mean total ms)"
                    ),
                )
            )
    return "\n\n".join(blocks)


#: Contention-aware mode: how many distinct functions burst at once,
#: and across how many hosts.
DEFAULT_CLUSTER_PARALLELISMS = (1, 4, 8, 16)
DEFAULT_CLUSTER_HOSTS = (1, 4)
DEFAULT_CLUSTER_FUNCTIONS = ("json",)

ClusterKey = Tuple[str, int, int]  # function, hosts, parallelism


@dataclass
class ClusterPoint:
    mean_ms: float
    max_ms: float


@dataclass
class Fig10ClusterResult:
    points: Dict[ClusterKey, ClusterPoint] = field(default_factory=dict)
    parallelisms: Tuple[int, ...] = DEFAULT_CLUSTER_PARALLELISMS
    host_counts: Tuple[int, ...] = DEFAULT_CLUSTER_HOSTS
    functions: Tuple[str, ...] = DEFAULT_CLUSTER_FUNCTIONS


def _cluster_cell(payload: Tuple[str, int, int]) -> Tuple[ClusterKey, ClusterPoint]:
    """One (function, hosts, parallelism) burst on a fresh cluster
    (pool worker; fresh state keeps cells order-independent)."""
    from repro.cluster import ClusterConfig, ClusterSimulator
    from repro.fleet.workload import Arrival, ArrivalTrace, FleetFunction

    name, hosts, parallelism = payload
    fleet = [
        FleetFunction(
            name=f"{name}@burst{i}",
            profile_name=name,
            mean_interarrival_us=1e6,
        )
        for i in range(parallelism)
    ]
    arrivals = sorted(
        (Arrival(time_us=0.0, function=f.name) for f in fleet),
        key=lambda a: (a.time_us, a.function),
    )
    trace = ArrivalTrace(arrivals=list(arrivals), duration_us=1.0)
    config = ClusterConfig(
        num_hosts=hosts,
        placement="least-loaded",
        restore_policy=Policy.FAASNAP,
        # Every burst VM restores; the burst measures restore
        # contention, not cold-boot frequency.
        assume_snapshots_exist=True,
    )
    report = ClusterSimulator(fleet, config).run(trace)
    latencies = [s.latency_us for s in report.served]
    point = ClusterPoint(
        mean_ms=mean(latencies) / 1000.0, max_ms=max(latencies) / 1000.0
    )
    return (name, hosts, parallelism), point


def run_cluster(
    functions: Sequence[str] = DEFAULT_CLUSTER_FUNCTIONS,
    parallelisms: Sequence[int] = DEFAULT_CLUSTER_PARALLELISMS,
    host_counts: Sequence[int] = DEFAULT_CLUSTER_HOSTS,
    jobs: Optional[int] = None,
) -> Fig10ClusterResult:
    """Figure 10's burst, but emergent: ``p`` different applications
    burst at once and each snapshot start runs the real page-level
    restore, so the slowdown at high parallelism is the hosts' device
    queues filling up — the effect the static cost table cannot show
    (its p=64 costs exactly what its p=1 costs)."""
    result = Fig10ClusterResult(
        parallelisms=tuple(parallelisms),
        host_counts=tuple(host_counts),
        functions=tuple(functions),
    )
    payloads = [
        (name, hosts, parallelism)
        for name in result.functions
        for hosts in result.host_counts
        for parallelism in result.parallelisms
    ]
    for key, point in parallel_map(_cluster_cell, payloads, jobs):
        result.points[key] = point
    return result


def format_cluster_table(result: Fig10ClusterResult) -> str:
    blocks: List[str] = []
    for name in result.functions:
        rows = []
        for hosts in result.host_counts:
            base = result.points[(name, hosts, result.parallelisms[0])]
            row: List[object] = [hosts]
            for parallelism in result.parallelisms:
                point = result.points[(name, hosts, parallelism)]
                row.append(point.mean_ms)
            row.append(
                result.points[
                    (name, hosts, result.parallelisms[-1])
                ].mean_ms
                / base.mean_ms
            )
            rows.append(row)
        blocks.append(
            render_table(
                ["hosts"]
                + [f"p={p}_ms" for p in result.parallelisms]
                + [f"slowdown@p={result.parallelisms[-1]}"],
                rows,
                title=(
                    f"Figure 10 (cluster mode): {name}, {result.parallelisms[-1]}"
                    " different applications bursting, page-level restores"
                    " (mean latency)"
                ),
            )
        )
    return "\n\n".join(blocks)


def main() -> None:  # pragma: no cover
    print(format_table(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
