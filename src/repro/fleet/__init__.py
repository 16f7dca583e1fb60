"""Fleet-level serving simulation (paper §2.1, §7.1).

The paper motivates snapshots with fleet economics: warm VMs are
fastest but hold memory; most functions are invoked too rarely to
stay warm (the Azure traces: fewer than half of all functions fire
every hour, fewer than 10% every minute); cold boots take seconds.
Section 7.1 concludes snapshots should serve the middle of the
frequency distribution and replace warm VMs on eviction.

This package makes that tradeoff measurable:

* :mod:`~repro.fleet.workload` — synthesizes a fleet of functions
  with an Azure-like invocation-frequency distribution and generates
  deterministic arrival traces.
* :mod:`~repro.fleet.costs` — measures each function's warm /
  snapshot / cold serving costs and memory footprint by running the
  page-level core simulation once per (function, policy).
* :mod:`~repro.fleet.scheduler` — the serving vocabulary: start
  kinds, invocation outcomes, the keep-alive pool and the report
  (latency percentiles, start-type mix, memory usage).

The serving loop itself — keep-alive TTLs, a per-host memory budget,
warm / snapshot / cold start choice — is
:class:`repro.cluster.ClusterSimulator`. Pass it a cost table
(``costs={name: FunctionCosts}``) to charge each start its measured
cost instead of running the page-level restore; see
``docs/cluster.md`` ("Two fidelities").
"""

from repro.fleet.costs import CostModel, FunctionCosts
from repro.fleet.scheduler import (
    FleetReport,
    IdlePool,
    PooledVm,
    ServedInvocation,
    StartKind,
)
from repro.fleet.workload import (
    ArrivalTrace,
    FleetFunction,
    generate_arrivals,
    synthesize_fleet,
)

__all__ = [
    "ArrivalTrace",
    "CostModel",
    "FleetFunction",
    "FleetReport",
    "FunctionCosts",
    "IdlePool",
    "PooledVm",
    "ServedInvocation",
    "StartKind",
    "generate_arrivals",
    "synthesize_fleet",
]
