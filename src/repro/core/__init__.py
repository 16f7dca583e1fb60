"""FaaSnap: the paper's contribution.

The five techniques of Section 4, plus the baselines they are
evaluated against:

* **concurrent paging** (:mod:`~repro.core.loader`) — a daemon loader
  thread prefetches the working set while the guest runs, turning
  blocking major faults into page-cache minor faults (§4.2);
* **working-set groups** (:mod:`~repro.core.working_set`,
  :mod:`~repro.core.recorder`) — pages grouped by access order so the
  loader reads in approximately the guest's order while keeping disk
  locality (§4.3);
* **host page recording** (:mod:`~repro.core.recorder`) — the working
  set comes from repeated ``mincore`` scans, so pages cached by
  readahead count too, tolerating input changes (§4.4);
* **per-region memory mapping** (:mod:`~repro.core.mapping`) — zero
  regions map to anonymous memory, non-zero regions to the memory
  file, bridging the guest/host semantic gap (§4.5, §4.8);
* **loading sets** (:mod:`~repro.core.loading_set`) — the non-zero
  working set, region-merged and stored in a compact file sorted by
  (group, address) for sequential prefetch (§4.6, §4.7).

:mod:`~repro.core.reap` implements the REAP baseline (ASPLOS '21),
:mod:`~repro.core.policies` names every restore policy including the
Figure 9 ablations, and :mod:`~repro.core.daemon` is the FaaSnap
daemon — the public entry point (register a function, record, invoke,
burst-invoke).
"""

from repro.core.adaptive import AdaptiveConfig, AdaptiveSnapshotManager
from repro.core.analysis import CoverageReport, faasnap_coverage, reap_coverage
from repro.core.daemon import FaaSnapPlatform, FunctionHandle, PlatformConfig
from repro.core.host import Host
from repro.core.loading_set import LoadingRegion, LoadingSet, build_loading_set
from repro.core.mapping import build_faasnap_plan, nonzero_regions
from repro.core.policies import Policy
from repro.core.restore import InvocationResult, RecordArtifacts
from repro.core.staging import SnapshotStager
from repro.core.working_set import ReapWorkingSet, WorkingSetGroups

__all__ = [
    "AdaptiveConfig",
    "AdaptiveSnapshotManager",
    "CoverageReport",
    "FaaSnapPlatform",
    "FunctionHandle",
    "Host",
    "InvocationResult",
    "LoadingRegion",
    "LoadingSet",
    "PlatformConfig",
    "Policy",
    "ReapWorkingSet",
    "RecordArtifacts",
    "SnapshotStager",
    "WorkingSetGroups",
    "build_faasnap_plan",
    "build_loading_set",
    "faasnap_coverage",
    "nonzero_regions",
    "reap_coverage",
]
