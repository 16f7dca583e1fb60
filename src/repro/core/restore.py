"""Record-phase and test-phase orchestration (paper Figure 5).

``run_record_phase`` performs the first invocation: restore the clean
snapshot, execute the function while the recorder watches (mincore
for the FaaSnap family, the fault stream for REAP), optionally
sanitize freed pages, capture the warm snapshot, and build the
working-set / loading-set artefacts.

``invocation_process`` performs a test-phase invocation under any
:class:`~repro.core.policies.Policy`, returning an
:class:`InvocationResult` with the timing and fault accounting every
paper figure is computed from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, List, Optional, Sequence, Set

# ``loading_set_loader`` is the same function as ``ordered_pages_loader``;
# the traced benchmark run patches both names in this module too.
from repro.core.loader import (
    LoaderStats,
    coalesce_ordered_pages,
    file_chunks,
    loading_set_loader,
    ordered_pages_loader,
)
from repro.core.loading_set import (
    DEFAULT_MERGE_GAP_PAGES,
    LoadingSet,
    build_loading_set,
    write_loading_set_file,
)
from repro.core.mapping import build_faasnap_plan
from repro.core.policies import Policy
from repro.core.reap import (
    make_reap_fault_handler,
    reap_setup,
    write_working_set_file,
)
from repro.core.recorder import mincore_recorder
from repro.core.working_set import (
    DEFAULT_GROUP_PAGES,
    ReapWorkingSet,
    WorkingSetGroups,
)
from repro.host.fault import FaultKind, FaultRecord, FaultStats
from repro.host.page_cache import PageCache
from repro.host.params import HostParams
from repro.sim import Environment, Event, Resource
from repro.storage.device import DeviceSpec
from repro.storage.filestore import PAGE_SIZE, FileStore, StoredFile
from repro.storage.presets import NVME_LOCAL
from repro.vm.snapshot import Snapshot, capture_memory_contents, create_snapshot
from repro.vm.vcpu import TraceColumns
from repro.vm.vmm import MappingPlan, MicroVM, VmmParams, full_file_plan
from repro.workloads.base import InputSpec, WorkloadProfile, WorkloadTrace
from repro.workloads.base import generate_trace
from repro.workloads.base import clean_snapshot_contents

#: Think time of one sanitize (zero-fill) write during the record
#: phase; sanitizing costs the guest ~10% of execution (§5) but only
#: runs in the unmeasured record phase.
_SANITIZE_WRITE_US = 0.2


@dataclass(frozen=True)
class PlatformConfig:
    """Tunables of the simulated platform."""

    host: HostParams = HostParams()
    vmm: VmmParams = VmmParams()
    device: DeviceSpec = NVME_LOCAL
    #: Working-set group size (paper: 1024).
    group_pages: int = DEFAULT_GROUP_PAGES
    #: Gap threshold for merging loading-set regions (paper: 32).
    loading_merge_gap: int = DEFAULT_MERGE_GAP_PAGES
    #: Host CPU slots for guest vCPUs (None = uncontended).
    cpu_slots: Optional[int] = None
    #: Tiered snapshot storage (§7.2 future work): keep the small
    #: loading-set / working-set files on the local NVMe SSD while the
    #: large memory files live on the (remote) primary device. Only
    #: meaningful when the primary device is remote.
    tiered_storage: bool = False
    #: Service runs of non-blocking page accesses (anonymous, minor,
    #: present) as one aggregated wakeup instead of one simulation
    #: event per page. Deterministic service times make the
    #: aggregation exact — every simulated number is bit-identical
    #: either way (the golden-parity tests machine-check this) — but
    #: test-phase invocations run roughly an order of magnitude
    #: faster. Record phases batch too: the mincore recorder replays
    #: its polls from time-stamped logs once the VM is done, so the
    #: VM runs with no observer on the event heap.
    batch_faults: bool = True


@dataclass
class RecordArtifacts:
    """Everything the record phase produces for later test phases."""

    profile: WorkloadProfile
    record_input: InputSpec
    sanitize: bool
    clean_snapshot: Snapshot
    warm_snapshot: Snapshot
    record_trace: WorkloadTrace
    #: FaaSnap working set (only for sanitize=True records).
    ws_groups: Optional[WorkingSetGroups] = None
    loading_set: Optional[LoadingSet] = None
    loading_file: Optional[StoredFile] = None
    #: REAP working set (only for sanitize=False records).
    reap_ws: Optional[ReapWorkingSet] = None
    reap_ws_file: Optional[StoredFile] = None


@dataclass
class InvocationResult:
    """Outcome and accounting of one test-phase invocation."""

    policy: Policy
    function: str
    input: InputSpec
    setup_us: float
    invoke_us: float
    #: Working-set / loading-set fetch (REAP setup read, FaaSnap
    #: loader) — Table 3's fetch columns.
    fetch_time_us: float = 0.0
    fetch_bytes: int = 0
    #: The invocation's fault log, taken over from its VM's handler.
    fault_log: FaultStats = field(default_factory=FaultStats)
    uffd_faults: int = 0
    #: Memory footprint after the invocation (paper §7.3): the VMM
    #: process's resident pages, the page-cache pages holding this
    #: function's snapshot/loading/working-set files, and any private
    #: user-space buffers (REAP's working-set staging buffer).
    rss_pages: int = 0
    cache_pages: int = 0
    private_buffer_pages: int = 0
    #: Instants on the simulated clock that the phase view
    #: (:func:`repro.metrics.tracing.phase_spans`) reads: the request,
    #: the guest's first instruction, and the end of the invocation
    #: (past the guest's finish when a loader join drained).
    request_us: float = 0.0
    invoke_start_us: float = 0.0
    end_us: float = 0.0
    #: The concurrent loader's run, when this invocation started one.
    loader: Optional[LoaderStats] = None
    #: Start of the cold boot (VMM start, kernel boot, runtime init)
    #: that preceded the invocation, for a cluster cold start.
    boot_start_us: Optional[float] = None

    @property
    def memory_footprint_mb(self) -> float:
        return (
            (self.rss_pages + self.cache_pages + self.private_buffer_pages)
            * PAGE_SIZE
            / 1e6
        )

    @property
    def total_us(self) -> float:
        return self.setup_us + self.invoke_us

    @property
    def total_ms(self) -> float:
        return self.total_us / 1000.0

    @property
    def fault_records(self) -> List[FaultRecord]:
        """The fault log as records, built on each read."""
        return self.fault_log.records

    def fault_count(self, kind: Optional[FaultKind] = None) -> int:
        return self.fault_log.count(kind)

    @property
    def major_faults(self) -> int:
        return self.fault_count(FaultKind.MAJOR)

    @property
    def fault_time_us(self) -> float:
        return self.fault_log.total_time_us()

    @property
    def fault_block_requests(self) -> int:
        return self.fault_log.total_block_requests()

    @property
    def guest_fault_bytes(self) -> int:
        return self.fault_log.total_bytes_read()


def artifact_file_names(artifacts: RecordArtifacts) -> List[str]:
    """Names of the files a test-phase invocation of ``artifacts`` can
    touch: the warm memory file plus the loading-set / working-set
    file. Used for per-function footprint accounting and for evicting
    one function's pages from a host cache (the clean snapshot is only
    read during the record phase and is excluded)."""
    names = [artifacts.warm_snapshot.memory_file.name]
    if artifacts.loading_file is not None:
        names.append(artifacts.loading_file.name)
    if artifacts.reap_ws_file is not None:
        names.append(artifacts.reap_ws_file.name)
    return names


def sanitized_columns(trace: WorkloadTrace) -> TraceColumns:
    """The record invocation with freed-page sanitization: ``trace``
    followed by a zeroing store to each page it freed."""
    return trace.columns.with_stores(trace.freed_pages, 0, _SANITIZE_WRITE_US)


def run_record_phase(
    env: Environment,
    config: PlatformConfig,
    store: FileStore,
    cache: PageCache,
    profile: WorkloadProfile,
    record_input: InputSpec,
    sanitize: bool,
    tag: str,
    wipe_pages: Sequence[int] = (),
    artifact_store: Optional[FileStore] = None,
) -> Generator[Event, Any, RecordArtifacts]:
    """Process helper: execute the record phase (paper Figure 5 left).

    Restores a clean snapshot with stock full-file mapping, runs the
    record invocation (with the mincore recorder and freed-page
    sanitization when ``sanitize``), captures the warm snapshot, and
    builds the per-policy artefacts. Drops the page cache afterwards,
    as the evaluation methodology does between phases (§6.1).

    ``wipe_pages`` are guest pages holding high-value secrets (e.g.
    PRNG state); they are zeroed in the captured snapshot, the
    MADV_WIPEONSUSPEND mitigation of §7.4, so restored clones never
    share them. ``artifact_store`` places the derived loading-set /
    working-set files on a different (e.g. faster, local) device than
    the snapshot itself — the tiered-storage layout of §7.2.
    """
    phase_start = env.now
    clean = create_snapshot(
        store,
        f"{tag}.clean",
        profile.total_pages,
        clean_snapshot_contents(profile),
    )
    if sanitize:
        # The recorder's mincore scans read this watch: it logs every
        # page inserted into the fresh memory file, and when, until the
        # record invocation ends.
        cache.watch(clean.memory_file.name)
    try:
        vm = MicroVM(
            env,
            config.host,
            config.vmm,
            cache,
            profile.total_pages,
            label=f"{tag}.record",
            batch_faults=config.batch_faults,
        )
        yield from vm.restore(clean, full_file_plan(clean))

        trace = generate_trace(profile, record_input)
        columns = sanitized_columns(trace) if sanitize else trace.columns

        started = env.now
        yield from vm.vcpu.run_trace(columns, tail_think_us=trace.tail_think_us)
        ws_groups: Optional[WorkingSetGroups] = None
        if sanitize:
            ws_groups = yield from mincore_recorder(
                env,
                config.host,
                cache,
                vm.procfs,
                clean.memory_file.name,
                profile.total_pages,
                started,
                vm.handler.stats,
                group_pages=config.group_pages,
            )
    finally:
        cache.unwatch(clean.memory_file.name)

    contents = capture_memory_contents(vm.space, base=clean)
    for page in wipe_pages:
        contents.pop(page, None)
    warm = create_snapshot(store, f"{tag}.warm", profile.total_pages, contents)

    artifacts = RecordArtifacts(
        profile=profile,
        record_input=record_input,
        sanitize=sanitize,
        clean_snapshot=clean,
        warm_snapshot=warm,
        record_trace=trace,
        ws_groups=ws_groups,
    )

    derived_store = artifact_store or store
    if sanitize:
        assert ws_groups is not None
        artifacts.loading_set = build_loading_set(
            ws_groups,
            warm.memory_file.pages,
            merge_gap=config.loading_merge_gap,
        )
        artifacts.loading_file = write_loading_set_file(
            derived_store, f"{tag}.loadingset", artifacts.loading_set, warm
        )
    else:
        artifacts.reap_ws = ReapWorkingSet.from_fault_pages(
            vm.handler.stats.pages
        )
        artifacts.reap_ws_file = write_working_set_file(
            derived_store, f"{tag}.reapws", artifacts.reap_ws, warm
        )

    telemetry = getattr(cache, "telemetry", None)
    if telemetry is not None:
        telemetry.profiler.phase("record", phase_start, env.now)
        telemetry.record_phases.value += 1
        telemetry.absorb_fault_records(vm.handler.stats)

    cache.drop_all()
    store.device.reset_stats()
    if derived_store is not store:
        derived_store.device.reset_stats()
    return artifacts


def _start_loader(
    env: Environment,
    cache: PageCache,
    artifacts: RecordArtifacts,
    policy: Policy,
    loader_gate: Optional[Set[str]],
    tag: str,
):
    """Kick off the concurrent daemon loader for FaaSnap-family
    policies. Returns ``(process, stats)`` or ``(None, stats)`` when
    another VM of the same burst already loads this snapshot (the
    daemon's load-once lock, §6.6)."""
    stats = LoaderStats()
    ws_groups = artifacts.ws_groups
    assert ws_groups is not None
    if policy is Policy.FAASNAP:
        file = artifacts.loading_file
        assert file is not None
        units = file_chunks(file.num_pages)
        gate_key = file.name
    else:
        file = artifacts.warm_snapshot.memory_file
        if policy is Policy.FAASNAP_CONCURRENT:
            pages = ws_groups.pages  # plain address order
        else:  # FAASNAP_PER_REGION: group order, addresses within group
            group_of = ws_groups.group_of
            pages = sorted(group_of, key=lambda p: (group_of[p], p))
        units = coalesce_ordered_pages(pages)
        gate_key = f"{file.name}:{policy.value}"
    if loader_gate is not None:
        if gate_key in loader_gate:
            return None, stats
        loader_gate.add(gate_key)
    proc = env.process(
        ordered_pages_loader(env, cache, file, units, stats),
        name=f"{tag}.loader",
    )
    return proc, stats


def invocation_process(
    env: Environment,
    config: PlatformConfig,
    store: FileStore,
    cache: PageCache,
    cpu: Optional[Resource],
    artifacts: RecordArtifacts,
    test_input: InputSpec,
    policy: Policy,
    tag: str,
    loader_gate: Optional[Set[str]] = None,
) -> Generator[Event, Any, InvocationResult]:
    """Process helper: one test-phase invocation under ``policy``.

    The result carries the phase instants, so the invocation's span
    tree is a view of it (:func:`repro.metrics.tracing.phase_spans`).
    """
    _check_artifacts(artifacts, policy)
    profile = artifacts.profile
    warm = artifacts.warm_snapshot
    trace = generate_trace(profile, test_input, prior=artifacts.record_trace)
    request_time = env.now

    vm = MicroVM(
        env,
        config.host,
        config.vmm,
        cache,
        profile.total_pages,
        label=tag,
        cpu=cpu,
        use_uffd=(policy is Policy.REAP),
        batch_faults=config.batch_faults,
    )

    # Concurrent paging starts the instant the request arrives —
    # before the VMM even begins setup (§4.2).
    loader_proc = None
    loader_stats = LoaderStats()
    if policy.uses_loader:
        loader_proc, loader_stats = _start_loader(
            env, cache, artifacts, policy, loader_gate, tag
        )

    fetch_time_us = 0.0
    fetch_bytes = 0

    if policy is Policy.WARM:
        vm.make_warm(warm)
        setup_us = 0.0
    elif policy is Policy.FIRECRACKER:
        setup_us = yield from vm.restore(warm, full_file_plan(warm))
    elif policy is Policy.CACHED:
        cache.warm_file(warm.memory_file.name, warm.memory_file.pages)
        setup_us = yield from vm.restore(warm, full_file_plan(warm))
    elif policy is Policy.REAP:
        assert artifacts.reap_ws is not None
        assert artifacts.reap_ws_file is not None
        plan = MappingPlan()
        plan.add_anonymous(0, profile.total_pages)
        setup_us = yield from vm.restore(warm, plan)
        assert vm.uffd is not None
        vm.uffd.register(
            0,
            profile.total_pages,
            make_reap_fault_handler(env, config.host, cache, warm),
        )
        fetch_time_us = yield from reap_setup(
            env, config.host, vm, artifacts.reap_ws, artifacts.reap_ws_file, warm
        )
        fetch_bytes = len(artifacts.reap_ws) * PAGE_SIZE
        setup_us += fetch_time_us
    elif policy is Policy.FAASNAP_CONCURRENT:
        setup_us = yield from vm.restore(warm, full_file_plan(warm))
    else:  # FAASNAP and FAASNAP_PER_REGION
        loading_set = (
            artifacts.loading_set if policy.uses_loading_set_file else None
        )
        loading_file = (
            artifacts.loading_file if policy.uses_loading_set_file else None
        )
        plan = build_faasnap_plan(warm, loading_set, loading_file)
        setup_us = yield from vm.restore(warm, plan)

    invoke_started = env.now
    yield from vm.vcpu.run_trace(trace.columns, tail_think_us=trace.tail_think_us)
    invoke_us = env.now - invoke_started

    if loader_proc is not None:
        if loader_proc.is_alive:
            yield loader_proc
        fetch_time_us = loader_stats.fetch_time_us
        fetch_bytes = loader_stats.bytes_read

    telemetry = getattr(cache, "telemetry", None)
    if telemetry is not None:
        profiler = telemetry.profiler
        invoke_end = invoke_started + invoke_us
        profiler.phase(
            f"setup.{policy.value}", request_time, request_time + setup_us
        )
        profiler.phase("invoke", invoke_started, invoke_end)
        if env.now > invoke_end:
            # The loader join drained past the guest's finish.
            profiler.phase("loader.drain", invoke_end, env.now)
        if loader_proc is not None and loader_stats.finished_us > 0:
            profiler.add("loader.fetch", loader_stats.fetch_time_us)
        telemetry.invocations.value += 1
        telemetry.absorb_fault_records(vm.handler.stats)
        if vm.uffd is not None:
            telemetry.uffd_delegated.value += vm.uffd.delegated_faults

    function_files = artifact_file_names(artifacts)
    cache_pages = sum(cache.count_for_file(name) for name in function_files)
    private_buffer_pages = (
        len(artifacts.reap_ws)
        if policy is Policy.REAP and artifacts.reap_ws is not None
        else 0
    )

    return InvocationResult(
        policy=policy,
        function=profile.name,
        input=test_input,
        setup_us=setup_us,
        invoke_us=invoke_us,
        fetch_time_us=fetch_time_us,
        fetch_bytes=fetch_bytes,
        # The VM is this invocation's own: nothing writes to its log
        # any more, so the result takes it over without a copy.
        fault_log=vm.handler.stats,
        uffd_faults=vm.uffd.delegated_faults if vm.uffd else 0,
        rss_pages=vm.space.rss_pages(),
        cache_pages=cache_pages,
        private_buffer_pages=private_buffer_pages,
        request_us=request_time,
        invoke_start_us=invoke_started,
        end_us=env.now,
        loader=loader_stats if loader_proc is not None else None,
    )


def _check_artifacts(artifacts: RecordArtifacts, policy: Policy) -> None:
    """Refuse mismatched record/test pairings early."""
    if policy.is_faasnap_family and not artifacts.sanitize:
        raise ValueError(
            f"{policy.value} needs a sanitize=True record phase"
        )
    if policy is Policy.REAP and artifacts.sanitize:
        raise ValueError("REAP needs a sanitize=False record phase")
    if policy in (Policy.FIRECRACKER, Policy.CACHED, Policy.WARM) and (
        artifacts.sanitize
    ):
        raise ValueError(
            f"{policy.value} compares against unsanitized snapshots"
        )
