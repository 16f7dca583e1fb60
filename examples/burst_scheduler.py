#!/usr/bin/env python3
"""Burst scheduling: choosing a restore policy for bursty traffic.

Scenario from the paper's introduction (§6.6, §7.1): an IoT backend
receives sudden bursts of parallel invocations of the same function.
Keeping warm VMs for the worst-case burst wastes memory; cold boots
are too slow. This example sweeps burst sizes under Firecracker, REAP
and FaaSnap and shows why FaaSnap's page-cache-friendly loading makes
it the right choice for both same-application bursts (snapshot files
shared) and multi-application bursts (all different snapshots).

Run:  python examples/burst_scheduler.py [--max-parallelism 16]
"""

import argparse

from repro.core import FaaSnapPlatform, Policy
from repro.core.restore import C5D_METAL_CPU_SLOTS, PlatformConfig
from repro.metrics import mean, render_table
from repro.workloads import get_profile
from repro.workloads.base import INPUT_A


def sweep(same_snapshot: bool, parallelisms, function_name: str):
    """Mean total latency per policy and burst size."""
    config = PlatformConfig(cpu_slots=C5D_METAL_CPU_SLOTS)
    rows = []
    for policy in (Policy.FIRECRACKER, Policy.REAP, Policy.FAASNAP):
        platform = FaaSnapPlatform(config)
        function = platform.register_function(get_profile(function_name))
        clones = (
            platform.make_clones(function, max(parallelisms))
            if not same_snapshot
            else None
        )
        row = [policy.value]
        for parallelism in parallelisms:
            results = platform.invoke_burst(
                function,
                INPUT_A,
                policy,
                parallelism=parallelism,
                same_snapshot=same_snapshot,
                clones=clones,
            )
            row.append(mean([r.total_ms for r in results]))
        rows.append(row)
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-parallelism", type=int, default=16)
    parser.add_argument("--function", default="hello-world")
    args = parser.parse_args()

    parallelisms = [p for p in (1, 4, 16, 64) if p <= args.max_parallelism]
    headers = ["policy"] + [f"burst={p}_ms" for p in parallelisms]

    same = sweep(True, parallelisms, args.function)
    print(
        render_table(
            headers,
            same,
            title=f"{args.function}: burst of one application (same snapshot)",
        )
    )
    print()
    diff = sweep(False, parallelisms, args.function)
    print(
        render_table(
            headers,
            diff,
            title=f"{args.function}: burst of many applications (different snapshots)",
        )
    )

    print()
    print("Scheduling takeaways (mirroring paper §6.6/§7.1):")
    print(
        " * same snapshot: FaaSnap reads the loading set once and every"
        " other VM hits the shared page cache; REAP bypasses the cache"
        " and re-reads its working set per VM."
    )
    print(
        " * different snapshots: Firecracker's scattered on-demand reads"
        " multiply with the burst size; FaaSnap's sequential loading-set"
        " reads keep the disk efficient."
    )


if __name__ == "__main__":
    main()
