"""Multi-host cluster serving (paper §7.1 at fleet scale).

A :class:`~repro.cluster.scheduler.ClusterSimulator` places arrivals
across N :class:`~repro.core.host.Host` machines on one shared
virtual clock, and by default every snapshot start runs the real
page-level restore on its host's own block device and page cache —
so device queue contention between concurrent restores (Fig. 10) and
the local-NVMe vs shared-remote storage gap (Fig. 11) are
*emergent*, not assumed. Given a measured cost table (``costs=``)
the same loop charges each start its table entry instead, which is
how the fleet-economics runs replay long traces.

* :mod:`~repro.cluster.placement` — pluggable placement policies:
  round-robin, least-loaded, snapshot-locality packing.
* :mod:`~repro.cluster.scheduler` — the serving loop itself, with
  per-host keep-alive pools, memory budgets, admission limits, a
  local-NVMe vs shared-EBS snapshot-store tier, and the two start
  fidelities.
* :mod:`~repro.cluster.sharding` — sharded execution of the same
  run: per-host event heaps synchronized through conservative
  virtual-time windows, bit-identical for any shard count.
"""

from repro.cluster.placement import (
    PLACEMENT_NAMES,
    HostView,
    LeastLoaded,
    PlacementPolicy,
    RoundRobin,
    SnapshotLocality,
    StaticHostView,
    make_placement,
)
from repro.cluster.scheduler import (
    SNAPSHOT_TIERS,
    TIER_LOCAL_NVME,
    TIER_SHARED_EBS,
    ClusterConfig,
    ClusterReport,
    ClusterSimulator,
    HostStats,
)
from repro.cluster.sharding import (
    DEFAULT_WINDOW_US,
    ShardedClusterSimulator,
    partition_hosts,
    plan_for_host,
)

__all__ = [
    "ClusterConfig",
    "ClusterReport",
    "ClusterSimulator",
    "DEFAULT_WINDOW_US",
    "HostStats",
    "HostView",
    "LeastLoaded",
    "PLACEMENT_NAMES",
    "PlacementPolicy",
    "RoundRobin",
    "SNAPSHOT_TIERS",
    "ShardedClusterSimulator",
    "SnapshotLocality",
    "StaticHostView",
    "TIER_LOCAL_NVME",
    "TIER_SHARED_EBS",
    "make_placement",
    "partition_hosts",
    "plan_for_host",
]
