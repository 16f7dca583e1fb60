"""Per-function serving costs, measured by the core simulation.

A long fleet trace need not replay every start at page granularity:
in the uncontended limit a start's cost depends only on (function,
start kind, restore policy), which the page-level simulator measures
exactly once here. :class:`repro.cluster.ClusterSimulator` charges
the table per start when given ``costs=``.

* **warm** — a warm VM serves the invocation (paper §3.1's Warm).
* **snapshot** — restore under the configured policy (Firecracker /
  REAP / FaaSnap), setup plus invocation, caches cold (§6.1's
  methodology: the pessimistic-but-fair case for a function that has
  not run recently).
* **cold** — boot the VMM and kernel, initialise the runtime, then
  run with warm-equivalent memory (nothing to page in from a
  snapshot).

Every measurement serves
:data:`~repro.cluster.scheduler.DEFAULT_TEST_INPUT`, the input the
page-level cluster serves by default. Memory numbers feed the
scheduler's budget: a warm VM holds its RSS; a stored snapshot holds
no memory (it lives on disk) but its restore temporarily populates
the page cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.daemon import FaaSnapPlatform
from repro.core.policies import Policy
from repro.core.restore import PlatformConfig
from repro.experiments.runner import parallel_map
from repro.workloads.base import INPUT_A
from repro.workloads.registry import get_profile


@dataclass(frozen=True)
class FunctionCosts:
    """Measured serving costs of one function."""

    profile_name: str
    policy: Policy
    warm_us: float
    snapshot_us: float
    cold_us: float
    #: Resident memory of a warm VM of this function, MB.
    warm_memory_mb: float

    def start_cost_us(self, kind: str) -> float:
        return {
            "warm": self.warm_us,
            "snapshot": self.snapshot_us,
            "cold": self.cold_us,
        }[kind]


class CostModel:
    """Measures and caches :class:`FunctionCosts` per (profile,
    policy). Every pair is measured on its own fresh page-level
    platform, so a cost never depends on what was measured before it
    or on how many jobs measured it."""

    def __init__(self, config: Optional[PlatformConfig] = None):
        self.config = config or PlatformConfig()
        self._cache: Dict[Tuple[str, Policy], FunctionCosts] = {}

    def costs(self, profile_name: str, policy: Policy) -> FunctionCosts:
        """Measured costs for ``profile_name`` restored via ``policy``."""
        key = (profile_name, policy)
        cached = self._cache.get(key)
        if cached is None:
            cached = self._cache[key] = _measure_pair(
                (self.config, profile_name, policy)
            )
        return cached

    def precompute(
        self,
        pairs: Iterable[Tuple[str, Policy]],
        jobs: Optional[int] = None,
    ) -> List[FunctionCosts]:
        """Measure many (profile, policy) pairs up front, optionally in
        parallel, and seed the cache. ``jobs=1`` and ``jobs=N`` produce
        the costs :meth:`costs` does. Pairs already cached are
        skipped.
        """
        todo = [
            (name, policy)
            for name, policy in dict.fromkeys(pairs)
            if (name, policy) not in self._cache
        ]
        payloads = [(self.config, name, policy) for name, policy in todo]
        measured = parallel_map(_measure_pair, payloads, jobs)
        for costs in measured:
            self._cache[(costs.profile_name, costs.policy)] = costs
        return measured


def _measure_pair(
    payload: Tuple[PlatformConfig, str, Policy],
) -> FunctionCosts:
    """Measure one (profile, policy) pair on a fresh platform
    (module-level so the process pool can pickle it)."""
    # Imported here: the cluster package imports this one.
    from repro.cluster.scheduler import DEFAULT_TEST_INPUT

    config, profile_name, policy = payload
    profile = get_profile(profile_name)
    platform = FaaSnapPlatform(config)
    handle = platform.register_function(profile)
    warm = platform.invoke(
        handle, DEFAULT_TEST_INPUT, Policy.WARM, record_input=INPUT_A
    )
    snapshot = platform.invoke(
        handle, DEFAULT_TEST_INPUT, policy, record_input=INPUT_A
    )
    cold_us = (
        config.vmm.vmm_start_us
        + config.vmm.cold_boot_us
        + profile.runtime_init_us
        + warm.total_us
    )
    return FunctionCosts(
        profile_name=profile_name,
        policy=policy,
        warm_us=warm.total_us,
        snapshot_us=snapshot.total_us,
        cold_us=cold_us,
        warm_memory_mb=warm.rss_pages * 4096 / 1e6,
    )
