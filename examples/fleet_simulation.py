#!/usr/bin/env python3
"""Fleet economics: where snapshots pay off (paper §2.1, §7.1).

Synthesizes a fleet of functions with an Azure-like invocation
frequency distribution, measures each function's warm / snapshot /
cold costs with the page-level simulator, then replays hours of
arrivals through a keep-alive scheduler under a memory budget. The
output shows the paper's argument in numbers: snapshots replace cold
starts for the mid-frequency tail, and a better restore path
(FaaSnap vs stock Firecracker) directly improves fleet tail latency.

Run:  python examples/fleet_simulation.py [--functions 200] [--hours 6]
"""

import argparse

from repro.cluster import ClusterConfig, ClusterSimulator
from repro.core.policies import Policy
from repro.fleet import (
    CostModel,
    StartKind,
    generate_arrivals,
    synthesize_fleet,
)
from repro.fleet.workload import US_PER_HOUR, US_PER_MINUTE, frequency_quantiles
from repro.metrics import render_table

#: Small profiles keep the cost-measurement phase quick.
PROFILES = ("json", "pyaes", "compression", "chameleon", "image")


def simulate(fleet, trace, cost_model, restore_policy, snapshots, ttl_min):
    config = ClusterConfig(
        num_hosts=1,
        restore_policy=restore_policy,
        keep_alive_ttl_us=ttl_min * US_PER_MINUTE,
        memory_budget_mb=8_192.0,
        snapshots_enabled=snapshots,
    )
    costs = {
        f.name: cost_model.costs(f.profile_name, restore_policy)
        for f in fleet
    }
    simulator = ClusterSimulator(fleet, config, costs=costs)
    return simulator.run(trace)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--functions", type=int, default=120)
    parser.add_argument("--hours", type=float, default=4.0)
    parser.add_argument("--ttl-minutes", type=float, default=15.0)
    args = parser.parse_args()

    fleet = synthesize_fleet(
        args.functions, seed=11, profile_names=PROFILES
    )
    quantiles = frequency_quantiles(fleet)
    trace = generate_arrivals(fleet, args.hours * US_PER_HOUR, seed=11)
    print(
        f"fleet: {args.functions} functions, "
        f"{quantiles['at_least_hourly']:.0%} invoked at least hourly, "
        f"{quantiles['at_least_minutely']:.0%} at least every minute "
        "(paper quotes <50% / <10%)"
    )
    print(f"trace: {len(trace)} invocations over {args.hours:g} h\n")

    cost_model = CostModel()
    scenarios = [
        ("cold-only (no snapshots)", Policy.FAASNAP, False),
        ("firecracker snapshots", Policy.FIRECRACKER, True),
        ("reap snapshots", Policy.REAP, True),
        ("faasnap snapshots", Policy.FAASNAP, True),
    ]
    rows = []
    for label, policy, snapshots in scenarios:
        report = simulate(
            fleet, trace, cost_model, policy, snapshots, args.ttl_minutes
        )
        rows.append(
            [
                label,
                report.mean_latency_us() / 1000,
                report.latency_percentile(99) / 1000,
                report.fraction(StartKind.WARM) * 100,
                report.fraction(StartKind.SNAPSHOT) * 100,
                report.fraction(StartKind.COLD) * 100,
                report.mean_memory_mb() / 1024,
            ]
        )
    print(
        render_table(
            [
                "platform",
                "mean_ms",
                "p99_ms",
                "warm_%",
                "snap_%",
                "cold_%",
                "mem_GB",
            ],
            rows,
            title=f"Fleet serving with {args.ttl_minutes:g}-minute keep-alive",
        )
    )

    print()
    ttl_rows = []
    for ttl in (1.0, 5.0, 15.0, 60.0):
        report = simulate(fleet, trace, cost_model, Policy.FAASNAP, True, ttl)
        ttl_rows.append(
            [
                f"{ttl:g} min",
                report.mean_latency_us() / 1000,
                report.fraction(StartKind.WARM) * 100,
                report.mean_memory_mb() / 1024,
            ]
        )
    print(
        render_table(
            ["keep-alive", "mean_ms", "warm_%", "mem_GB"],
            ttl_rows,
            title="Keep-alive TTL vs memory (FaaSnap snapshots)",
        )
    )


if __name__ == "__main__":
    main()
