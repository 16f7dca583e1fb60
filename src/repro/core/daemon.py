"""The FaaSnap daemon / platform — the library's public entry point.

Mirrors the role of the FaaSnap daemon in the paper (§4.1, Figure 3):
it owns the VM images, snapshot and working-set files, the page cache
and disk, manages VM lifecycles, and serves invocation requests. Here
the "cluster" is a single simulated host, and the remote clients are
your Python code:

    from repro.core import FaaSnapPlatform, Policy
    from repro.workloads import get_profile
    from repro.workloads.base import INPUT_A

    platform = FaaSnapPlatform()
    fn = platform.register_function(get_profile("json"))
    result = platform.invoke(fn, INPUT_A, Policy.FAASNAP)
    print(result.total_ms)

All per-machine state (device, file store, page cache, CPU slots,
record-artifact cache) lives in a :class:`~repro.core.host.Host`; the
platform owns exactly one host with a private clock and adds the
function registry and the record/test-phase orchestration on top.
Multi-host serving — N hosts on one shared clock, with placement and
contention — is :mod:`repro.cluster`, built from the same ``Host``.

Record phases run lazily: the first invocation of a (function,
record-input, policy-family) combination performs the record phase
and caches its artefacts, exactly like the paper's two-phase
methodology (§6.1). The page cache is dropped before each measured
invocation, as the paper does.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.core.host import Host
from repro.core.policies import Policy
from repro.core.restore import (
    InvocationResult,
    PlatformConfig,
    RecordArtifacts,
)
from repro.sim import Environment
from repro.workloads.base import INPUT_A, InputSpec, WorkloadProfile
from repro.workloads.registry import get_profile


@dataclass(frozen=True)
class FunctionHandle:
    """A registered function."""

    name: str
    profile: WorkloadProfile
    #: Guest pages wiped (zeroed) in every snapshot of this function —
    #: the MADV_WIPEONSUSPEND mitigation for secrets like PRNG state
    #: (paper §7.4).
    wipe_pages: Tuple[int, ...] = ()


class FaaSnapPlatform:
    """One simulated FaaS host with a policy-switchable restore path."""

    def __init__(
        self,
        config: Optional[PlatformConfig] = None,
        remote_storage: bool = False,
    ):
        self.host = Host(
            Environment(), config=config, remote_storage=remote_storage
        )
        self._functions: Dict[str, FunctionHandle] = {}

    # -- host delegation ---------------------------------------------------
    # The per-machine state was extracted into Host; these aliases keep
    # the platform's public surface (and a lot of test plumbing) stable.

    @property
    def config(self) -> PlatformConfig:
        return self.host.config

    @property
    def env(self) -> Environment:
        return self.host.env

    @property
    def metrics(self):
        """The run's :class:`~repro.metrics.telemetry.MetricsRegistry`
        (owned by the host's environment)."""
        return self.host.env.metrics

    @property
    def device(self):
        return self.host.device

    @property
    def store(self):
        return self.host.store

    @property
    def cache(self):
        return self.host.cache

    # -- functions -----------------------------------------------------

    def register_function(
        self,
        profile: Union[str, WorkloadProfile],
        wipe_pages: Tuple[int, ...] = (),
    ) -> FunctionHandle:
        """Register a function by profile (or by its Table 2 name).

        ``wipe_pages`` marks guest pages holding secrets; they are
        zeroed in every snapshot taken of this function (§7.4).
        """
        if isinstance(profile, str):
            profile = get_profile(profile)
        if profile.name in self._functions:
            raise ValueError(f"function {profile.name!r} already registered")
        handle = FunctionHandle(
            name=profile.name, profile=profile, wipe_pages=tuple(wipe_pages)
        )
        self._functions[profile.name] = handle
        return handle

    # -- record phase ----------------------------------------------------

    def ensure_record(
        self,
        function: FunctionHandle,
        record_input: InputSpec,
        policy: Policy,
    ) -> RecordArtifacts:
        """Run (or reuse) the record phase matching ``policy``.

        FaaSnap-family policies record with mincore tracking and
        freed-page sanitization; the others share a plain record.
        """
        cached = self.host.cached_artifacts(
            function.name, record_input, policy
        )
        if cached is not None:
            return cached
        process = self.env.process(
            self.host.record_process(
                function.profile,
                record_input,
                policy,
                wipe_pages=function.wipe_pages,
            ),
            name=f"record:{function.name}",
        )
        return self.env.run(until=process)

    # -- invocation -------------------------------------------------------

    def invoke(
        self,
        function: FunctionHandle,
        test_input: InputSpec = INPUT_A,
        policy: Policy = Policy.FAASNAP,
        record_input: Optional[InputSpec] = None,
        drop_caches: bool = True,
        tracer=None,
    ) -> InvocationResult:
        """One measured test-phase invocation.

        ``record_input`` defaults to input A (the paper records with A
        and tests with B or a scaled input; pass both to reproduce a
        specific figure cell). ``drop_caches`` reproduces the paper's
        methodology of evicting all snapshot files before each test.
        ``tracer`` (see :class:`repro.metrics.tracing.Tracer`) receives
        the invocation's span tree, a view of the result and the
        simulated equivalent of the artifact's Zipkin traces.
        """
        artifacts = self.ensure_record(
            function, record_input or INPUT_A, policy
        )
        if drop_caches:
            self.drop_caches()
        tag = f"{function.name}.{policy.value}.{self.host.next_tag()}"
        process = self.env.process(
            self.host.invocation(
                artifacts,
                test_input,
                policy,
                loader_gate=set(),
                tag=tag,
            ),
            name=f"invoke:{tag}",
        )
        result = self.env.run(until=process)
        if tracer is not None:
            tracer.add(result)
        return result

    def invoke_burst(
        self,
        function: FunctionHandle,
        test_input: InputSpec,
        policy: Policy,
        parallelism: int,
        same_snapshot: bool = True,
        record_input: Optional[InputSpec] = None,
        drop_caches: bool = True,
        clones: Optional[List[FunctionHandle]] = None,
    ) -> List[InvocationResult]:
        """``parallelism`` simultaneous invocations (paper §6.6).

        With ``same_snapshot`` every VM restores the same snapshot
        (one bursty application); otherwise each VM gets its own
        clone of the function with its own snapshot files (many
        different applications bursting at once). Pass ``clones``
        (see :meth:`make_clones`) to reuse the clone functions — and
        their cached record phases — across several bursts.
        """
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        record_input = record_input or INPUT_A
        if same_snapshot:
            artifact_list = [
                self.ensure_record(function, record_input, policy)
            ] * parallelism
        else:
            if clones is None:
                clones = self.make_clones(function, parallelism)
            if len(clones) < parallelism:
                raise ValueError(
                    f"need {parallelism} clones, got {len(clones)}"
                )
            artifact_list = [
                self.ensure_record(clone, record_input, policy)
                for clone in clones[:parallelism]
            ]
        if drop_caches:
            self.drop_caches()
        loader_gate: set = set()
        processes = []
        for index, artifacts in enumerate(artifact_list):
            tag = (
                f"{function.name}.{policy.value}.burst{index}."
                f"{self.host.next_tag()}"
            )
            processes.append(
                self.env.process(
                    self.host.invocation(
                        artifacts,
                        test_input,
                        policy,
                        loader_gate=loader_gate,
                        tag=tag,
                    ),
                    name=f"invoke:{tag}",
                )
            )
        return self.env.run(until=self.env.all_of(processes))

    def make_clones(
        self, function: FunctionHandle, count: int
    ) -> List[FunctionHandle]:
        """Register ``count`` clones of ``function`` — distinct
        applications with identical behaviour but separate snapshot
        files, for different-snapshot bursts."""
        clones = []
        for _ in range(count):
            clone_name = f"{function.name}@clone{self.host.next_tag()}"
            clones.append(
                self.register_function(
                    dataclasses.replace(function.profile, name=clone_name)
                )
            )
        return clones

    # -- housekeeping -------------------------------------------------------

    def drop_caches(self) -> None:
        """Evict the whole page cache and reset device counters
        (``echo 3 > /proc/sys/vm/drop_caches`` between tests, §6.1)."""
        self.host.drop_caches()
