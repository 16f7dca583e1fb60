"""Extension benchmark: fleet-level serving economics (paper §7.1).

Not a paper figure — this quantifies the deployment argument of the
discussion section: snapshots replace cold starts for mid-frequency
functions, and FaaSnap's faster restore path directly improves the
latency of every snapshot-served invocation.
"""

from repro.cluster import ClusterConfig, ClusterSimulator
from repro.core.policies import Policy
from repro.fleet import (
    CostModel,
    StartKind,
    generate_arrivals,
    synthesize_fleet,
)
from repro.fleet.workload import US_PER_HOUR, US_PER_MINUTE
from repro.metrics import render_table

PROFILES = ("json", "pyaes", "compression")


def test_fleet_snapshot_tier(bench_once):
    def run():
        fleet = synthesize_fleet(40, seed=11, profile_names=PROFILES)
        trace = generate_arrivals(fleet, 2 * US_PER_HOUR, seed=11)
        cost_model = CostModel()
        reports = {}
        for label, policy, snapshots in [
            ("cold-only", Policy.FAASNAP, False),
            ("firecracker", Policy.FIRECRACKER, True),
            ("reap", Policy.REAP, True),
            ("faasnap", Policy.FAASNAP, True),
        ]:
            config = ClusterConfig(
                num_hosts=1,
                restore_policy=policy,
                keep_alive_ttl_us=1 * US_PER_MINUTE,
                memory_budget_mb=8_192.0,
                snapshots_enabled=snapshots,
            )
            costs = {
                f.name: cost_model.costs(f.profile_name, policy)
                for f in fleet
            }
            reports[label] = ClusterSimulator(
                fleet, config, costs=costs
            ).run(trace)
        return reports

    reports = bench_once(run)

    rows = [
        [
            label,
            report.mean_latency_us() / 1000,
            report.latency_percentile(99) / 1000,
            report.fraction(StartKind.WARM) * 100,
            report.fraction(StartKind.SNAPSHOT) * 100,
            report.fraction(StartKind.COLD) * 100,
        ]
        for label, report in reports.items()
    ]
    print()
    print(
        render_table(
            ["platform", "mean_ms", "p99_ms", "warm_%", "snap_%", "cold_%"],
            rows,
            title="Fleet serving, 1-minute keep-alive (extension of paper 7.1)",
        )
    )

    # Any snapshot tier beats cold-only on mean latency.
    assert (
        reports["faasnap"].mean_latency_us()
        < reports["cold-only"].mean_latency_us()
    )
    # FaaSnap's faster restore shows up at fleet level.
    assert (
        reports["faasnap"].mean_latency_us()
        < reports["firecracker"].mean_latency_us()
    )
    assert (
        reports["faasnap"].mean_latency_us()
        <= reports["reap"].mean_latency_us()
    )
    # With a 1-minute TTL most invocations are NOT warm (Azure trace
    # shape), so the snapshot tier actually carries load.
    assert reports["faasnap"].fraction(StartKind.SNAPSHOT) > 0.2
