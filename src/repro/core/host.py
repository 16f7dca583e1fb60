"""One simulated machine: the state a FaaSnap daemon instance owns.

Historically :class:`~repro.core.daemon.FaaSnapPlatform` hard-wired a
single host's hardware and OS state — the simulation
:class:`~repro.sim.Environment`, the
:class:`~repro.host.page_cache.PageCache`, the snapshot
:class:`~repro.storage.device.BlockDevice` and
:class:`~repro.storage.filestore.FileStore`, and the record-artifact
cache — directly into the platform object. :class:`Host` extracts all
of it into a reusable unit so that:

* the single-host platform keeps exactly its old behaviour by owning
  one ``Host`` with a private clock, and
* the :mod:`repro.cluster` subsystem can instantiate N hosts *sharing
  one virtual clock*, each with its own device, page cache and
  record-artifact cache — which is what makes restore contention and
  warm page-cache reuse emergent at fleet scale instead of being
  summarised by a static cost table.

A ``Host`` deliberately does **not** own an event loop: it attaches to
an :class:`~repro.sim.Environment` given at construction, and its
record/invocation helpers return *process generators* for the caller
to schedule, so any number of hosts compose on one timeline.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from repro.core.policies import Policy
from repro.core.restore import (
    InvocationResult,
    PlatformConfig,
    RecordArtifacts,
    artifact_file_names,
    invocation_process,
    run_record_phase,
)
from repro.host.page_cache import PageCache
from repro.sim import Environment, Event, Resource
from repro.storage.device import BlockDevice
from repro.storage.filestore import FileStore
from repro.storage.presets import EBS_IO2, NVME_LOCAL
from repro.workloads.base import InputSpec, WorkloadProfile

#: Cache key of one record phase: (function name, record-input content
#: id, record-input size ratio, sanitize family).
ArtifactKey = Tuple[str, int, float, bool]


class Host:
    """A simulated host: devices, file store, page cache, CPU slots,
    and the cache of record-phase artefacts produced on this host."""

    def __init__(
        self,
        env: Environment,
        config: Optional[PlatformConfig] = None,
        host_id: str = "host0",
        remote_storage: bool = False,
        store: Optional[FileStore] = None,
    ):
        """Attach a host to ``env``.

        ``store`` injects a snapshot file store shared with other
        hosts (the cluster's shared-EBS tier); by default the host
        gets its own device and store (its local NVMe). The page
        cache is always per host — a shared store models shared
        *storage*, not shared *memory*.
        """
        self.env = env
        self.host_id = host_id
        config = config or PlatformConfig()
        if remote_storage:
            config = dataclasses.replace(config, device=EBS_IO2)
        self.config = config
        if store is not None:
            self.store = store
            self.device = store.device
        else:
            self.device = BlockDevice(
                env, config.device, metrics_prefix=f"{host_id}.device"
            )
            self.store = FileStore(env, self.device)
        if config.tiered_storage:
            # Small derived files (loading sets, working sets) stay on
            # a local NVMe SSD while the big memory files live on the
            # primary (usually remote) device (§7.2).
            self.local_device: Optional[BlockDevice] = BlockDevice(
                env, NVME_LOCAL, metrics_prefix=f"{host_id}.local_device"
            )
            self.artifact_store: FileStore = FileStore(env, self.local_device)
        else:
            self.local_device = None
            self.artifact_store = self.store
        self.cache = PageCache(env, metrics_root=host_id)
        self.cpu = (
            Resource(env, config.cpu_slots)
            if config.cpu_slots is not None
            else None
        )
        self._artifacts: Dict[ArtifactKey, RecordArtifacts] = {}
        self._tags = itertools.count()
        #: Crash state (fault injection): a crashed host serves
        #: nothing until rebooted. Snapshot artefacts live on durable
        #: storage and survive; the page cache does not.
        self.crashed = False
        self.crash_count = 0
        registry = getattr(env, "metrics", None)
        if registry is not None and self.cache.metrics_root is not None:
            registry.gauge(
                f"{self.cache.metrics_root}.artifact_cache.entries",
                lambda: len(self._artifacts),
            )

    # -- tags and artifact cache ---------------------------------------

    def next_tag(self) -> int:
        """Monotonic per-host counter for unique file/process names."""
        return next(self._tags)

    @staticmethod
    def artifact_key(
        profile_name: str, record_input: InputSpec, sanitize: bool
    ) -> ArtifactKey:
        return (
            profile_name,
            record_input.content_id,
            record_input.size_ratio,
            sanitize,
        )

    def cached_artifacts(
        self, profile_name: str, record_input: InputSpec, policy: Policy
    ) -> Optional[RecordArtifacts]:
        """Already-recorded artefacts matching ``policy``, if any."""
        key = self.artifact_key(
            profile_name, record_input, policy.is_faasnap_family
        )
        return self._artifacts.get(key)

    def adopt_artifacts(
        self, record_input: InputSpec, artifacts: RecordArtifacts
    ) -> None:
        """Register artefacts recorded elsewhere (a shared snapshot
        store lets every host restore files another host recorded)."""
        key = self.artifact_key(
            artifacts.profile.name, record_input, artifacts.sanitize
        )
        self._artifacts[key] = artifacts

    # -- record phase --------------------------------------------------

    def record_process(
        self,
        profile: WorkloadProfile,
        record_input: InputSpec,
        policy: Policy,
        wipe_pages: Sequence[int] = (),
    ) -> Generator[Event, Any, RecordArtifacts]:
        """Process generator: run (or reuse) the record phase matching
        ``policy`` on this host. FaaSnap-family policies record with
        mincore tracking and freed-page sanitization; the others share
        a plain record. The result is cached per
        :meth:`artifact_key`, exactly like the paper's two-phase
        methodology (§6.1) caches record artefacts per function."""
        sanitize = policy.is_faasnap_family
        key = self.artifact_key(profile.name, record_input, sanitize)
        cached = self._artifacts.get(key)
        if cached is not None:
            return cached
        tag = (
            f"{profile.name}.{'fs' if sanitize else 'std'}.{self.next_tag()}"
        )
        artifacts = yield from run_record_phase(
            self.env,
            self.config,
            self.store,
            self.cache,
            profile,
            record_input,
            sanitize,
            tag,
            wipe_pages=wipe_pages,
            artifact_store=self.artifact_store,
        )
        self._artifacts[key] = artifacts
        return artifacts

    # -- invocation ----------------------------------------------------

    def invocation(
        self,
        artifacts: RecordArtifacts,
        test_input: InputSpec,
        policy: Policy,
        loader_gate: Optional[set] = None,
        tag: Optional[str] = None,
    ) -> Generator[Event, Any, InvocationResult]:
        """Process generator: one test-phase invocation on this host's
        device, cache and CPU slots."""
        if tag is None:
            tag = (
                f"{artifacts.profile.name}.{policy.value}.{self.next_tag()}"
            )
        return invocation_process(
            self.env,
            self.config,
            self.store,
            self.cache,
            self.cpu,
            artifacts,
            test_input,
            policy,
            tag,
            loader_gate=loader_gate,
        )

    # -- crash lifecycle -----------------------------------------------

    def crash(self) -> None:
        """Power-fail the host: volatile state (page cache, readahead
        window) is lost immediately. Device counters survive — they
        model the run's accounting, not on-host RAM — and so do the
        snapshot files and record-artefact index, which live on
        durable storage. The *caller* (scheduler / injector) is
        responsible for aborting in-flight work and discarding
        keep-alive VMs, which are scheduler-owned state."""
        self.crashed = True
        self.crash_count += 1
        self.cache.drop_all()
        self.device.reset_readahead()
        if self.local_device is not None:
            self.local_device.reset_readahead()

    def reboot(self) -> None:
        """Bring a crashed host back with cold caches."""
        if not self.crashed:
            raise RuntimeError(f"reboot() of a running host {self.host_id}")
        self.crashed = False

    # -- housekeeping --------------------------------------------------

    def drop_caches(self) -> None:
        """Evict the whole page cache and reset device counters and
        readahead state (``echo 3 > /proc/sys/vm/drop_caches`` between
        tests, §6.1)."""
        self.cache.drop_all()
        self.device.reset_stats()
        self.device.reset_readahead()
        if self.local_device is not None:
            self.local_device.reset_stats()
            self.local_device.reset_readahead()

    def drop_function_caches(self, artifacts: RecordArtifacts) -> None:
        """Evict one function's snapshot/working-set pages and reset
        the readahead detector — the per-function equivalent of the
        between-tests ``drop_caches``, used by the cluster scheduler
        to reproduce the cost model's cold-cache methodology for a
        function that has not run recently, without disturbing other
        functions' resident pages. Pending reads are unaffected."""
        for name in artifact_file_names(artifacts):
            self.cache.drop_file(name)
        self.device.reset_readahead()
        if self.local_device is not None:
            self.local_device.reset_readahead()

    def function_file_names(self, artifacts: RecordArtifacts) -> List[str]:
        return artifact_file_names(artifacts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Host {self.host_id} on {self.device.spec.name}>"
