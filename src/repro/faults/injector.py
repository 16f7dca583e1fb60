"""Replaying a :class:`~repro.faults.plan.FaultPlan` against a run.

The injector is deliberately dumb: each fault in the plan becomes one
small simulation process that sleeps until the fault's virtual time,
applies it through a narrow *target* interface, and (for windowed
faults) revokes it when the window closes. With an empty plan the
injector spawns **zero** processes and touches nothing — the
zero-perturbation guarantee the perf harness gates.

The target is duck-typed so the injector does not import the cluster
scheduler (which sits above it). It must provide::

    devices_for_scope(scope) -> Sequence[BlockDevice]
    crash_host(host_id)      -> None
    reboot_host(host_id)     -> None

Snapshot corruption is latent state the injector itself owns: the
restore path asks :meth:`FaultInjector.check_snapshot` before using
artefacts, and a positive answer both fails that restore and clears
the mark (detection triggers repair/re-fetch).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Set, Tuple

from repro.faults.plan import FaultPlan
from repro.sim import Environment, Event, Interrupt
from repro.storage.device import Degradation


class FaultInjector:
    """Schedules the faults of one plan on one environment."""

    def __init__(
        self,
        env: Environment,
        plan: Optional[FaultPlan] = None,
        observer: Optional[Any] = None,
    ):
        self.env = env
        self.plan = plan if plan is not None else FaultPlan.empty()
        #: Optional ``observer(scope, kind, **detail)`` callback — the
        #: cluster plane's emit call — fired synchronously, purely for
        #: recording, when a fault is applied or revoked. Never a sim
        #: event.
        self.observer = observer
        #: Optional :class:`~repro.faults.durability.DurabilityManager`.
        #: When attached, corruption events land on real replica
        #: checksums instead of the latent side-channel set, and the
        #: restore path detects them by verification.
        self.durability: Optional[Any] = None
        self._corrupted: Set[Tuple[str, str]] = set()
        self._armed = False
        self._disarmed = False
        #: Spawned fault processes plus a per-process mutable flag dict
        #: (``keep`` marks a process whose destructive half already
        #: fired but whose *recovery* half — a pending reboot — must
        #: survive a disarm).
        self._procs: List[Tuple[Any, Dict[str, bool]]] = []
        #: Degradation windows currently pushed onto devices, as
        #: mutable ``[devices, degradation]`` entries shared with the
        #: window processes so either side can close a window once.
        self._open_windows: List[list] = []
        # Plain ints on the hot side; exported as pull counters.
        self.device_windows_opened = 0
        self.device_windows_closed = 0
        self.host_crashes = 0
        self.host_reboots = 0
        self.corruptions_marked = 0
        self.corruptions_detected = 0
        self.fail_slows_applied = 0
        self.fail_slows_recovered = 0

    @property
    def armed(self) -> bool:
        """True between :meth:`arm` and :meth:`disarm`."""
        return self._armed and not self._disarmed

    # -- arming --------------------------------------------------------

    def arm(self, target: Any, epoch_us: Optional[float] = None) -> None:
        """Start one process per planned fault, with fault times
        interpreted relative to ``epoch_us`` (default: now). Arming
        an empty plan is a no-op."""
        if self._armed:
            raise RuntimeError("FaultInjector.arm() called twice")
        self._armed = True
        self._register_metrics()
        if self.plan.is_empty:
            return
        epoch = self.env.now if epoch_us is None else epoch_us
        for fault in self.plan.device_faults:
            self._spawn(
                self._device_window(target, fault, epoch),
                f"fault.device.{fault.scope}",
            )
        for crash in self.plan.host_crashes:
            cell: Dict[str, bool] = {}
            self._spawn(
                self._crash(target, crash, epoch, cell),
                f"fault.crash.{crash.host}",
                cell,
            )
        for corruption in self.plan.corruptions:
            self._spawn(
                self._corrupt(corruption, epoch),
                f"fault.corrupt.{corruption.host}",
            )
        for fail_slow in self.plan.fail_slows:
            self._spawn(
                self._fail_slow(target, fail_slow, epoch),
                f"fault.slow.{fail_slow.host}",
            )

    def _spawn(self, generator, name: str, cell=None) -> None:
        proc = self.env.process(generator, name=name)
        self._procs.append((proc, cell if cell is not None else {}))

    def disarm(self) -> None:
        """Cancel every fault that has not happened yet and revoke
        every degradation window still open.

        Already-applied state is handled by intent: open device
        windows close now (the operator asked for the storm to stop),
        latent corruption marks clear (they never became observable),
        but a crashed host's *pending reboot* still runs — killing the
        recovery half of a transient crash would strand the host dead
        forever, which is not what "stop injecting faults" means.
        Idempotent; a no-op before :meth:`arm`."""
        if not self.armed:
            return
        self._disarmed = True
        for proc, cell in self._procs:
            if proc.is_alive and not cell.get("keep", False):
                proc.interrupt("fault plan disarmed")
        self._procs.clear()
        for entry in list(self._open_windows):
            self._close_window(entry)
        self._corrupted.clear()

    def _notify(self, kind: str, scope: str, **detail: Any) -> None:
        if self.observer is not None:
            self.observer(scope, kind, **detail)

    def _close_window(self, entry: list) -> None:
        if entry not in self._open_windows:
            return
        self._open_windows.remove(entry)
        devices, degradation, scope, kind = entry
        for device in devices:
            device.pop_degradation(degradation)
        if kind == "fail-slow":
            self.fail_slows_recovered += 1
            self._notify("fault.fail-slow.close", scope)
        else:
            self.device_windows_closed += 1
            self._notify("fault.device-window.close", scope)

    def _register_metrics(self) -> None:
        registry = getattr(self.env, "metrics", None)
        if registry is None:
            return
        prefix = registry.unique_prefix("fault")
        registry.pull_counter(
            f"{prefix}.device_windows_opened",
            lambda: self.device_windows_opened,
        )
        registry.pull_counter(
            f"{prefix}.device_windows_closed",
            lambda: self.device_windows_closed,
        )
        registry.pull_counter(
            f"{prefix}.host_crashes", lambda: self.host_crashes
        )
        registry.pull_counter(
            f"{prefix}.host_reboots", lambda: self.host_reboots
        )
        registry.pull_counter(
            f"{prefix}.corruptions_marked",
            lambda: self.corruptions_marked,
        )
        registry.pull_counter(
            f"{prefix}.corruptions_detected",
            lambda: self.corruptions_detected,
        )
        registry.pull_counter(
            f"{prefix}.fail_slows_applied",
            lambda: self.fail_slows_applied,
        )
        registry.gauge(
            f"{prefix}.corrupted_snapshots", lambda: len(self._corrupted)
        )

    # -- fault processes -----------------------------------------------

    def _device_window(
        self, target: Any, fault, epoch: float
    ) -> Generator[Event, Any, None]:
        yield self.env.timeout(
            max(0.0, epoch + fault.start_us - self.env.now)
        )
        degradation = Degradation(
            latency_factor=fault.latency_factor,
            bandwidth_factor=fault.bandwidth_factor,
            iops_factor=fault.iops_factor,
            error_rate=fault.error_rate,
        )
        devices = list(target.devices_for_scope(fault.scope))
        for device in devices:
            device.push_degradation(degradation)
        self.device_windows_opened += 1
        self._notify(
            "fault.device-window.open",
            fault.scope,
            latency_factor=fault.latency_factor,
            error_rate=fault.error_rate,
        )
        entry = [devices, degradation, fault.scope, "device"]
        self._open_windows.append(entry)
        if fault.duration_us is None:
            return
        try:
            yield self.env.timeout(fault.duration_us)
        except Interrupt:
            # Disarm revokes the window synchronously via
            # ``_close_window``; nothing left to do here.
            return
        self._close_window(entry)

    def _fail_slow(
        self, target: Any, fault, epoch: float
    ) -> Generator[Event, Any, None]:
        """Gray failure: the host's primary device keeps serving
        correctly but ``slowdown``× slower, with no error signal. Only
        the :class:`~repro.faults.health.HealthMonitor`'s
        restore-latency outlier score can catch it."""
        yield self.env.timeout(
            max(0.0, epoch + fault.start_us - self.env.now)
        )
        degradation = Degradation(latency_factor=fault.slowdown)
        devices = list(target.devices_for_scope(fault.host))
        for device in devices:
            device.push_degradation(degradation)
        self.fail_slows_applied += 1
        self._notify(
            "fault.fail-slow.open", fault.host, slowdown=fault.slowdown
        )
        entry = [devices, degradation, fault.host, "fail-slow"]
        self._open_windows.append(entry)
        if fault.duration_us is None:
            return
        try:
            yield self.env.timeout(fault.duration_us)
        except Interrupt:
            return
        self._close_window(entry)

    def _crash(
        self, target: Any, crash, epoch: float, cell: Dict[str, bool]
    ) -> Generator[Event, Any, None]:
        yield self.env.timeout(max(0.0, epoch + crash.at_us - self.env.now))
        target.crash_host(crash.host)
        self.host_crashes += 1
        if crash.reboot_after_us is None:
            return
        # The crash fired: from here the process is a pending reboot,
        # which a disarm must let run (see ``disarm``).
        cell["keep"] = True
        yield self.env.timeout(crash.reboot_after_us)
        target.reboot_host(crash.host)
        self.host_reboots += 1

    def _corrupt(self, corruption, epoch: float) -> Generator[Event, Any, None]:
        yield self.env.timeout(
            max(0.0, epoch + corruption.at_us - self.env.now)
        )
        if self.durability is not None:
            # With the durability plane armed, corruption is real
            # bit-rot in replica checksums — detected at read or
            # scrub time by verification, not via the latent mark.
            self.durability.mark_corrupt(
                corruption.host, corruption.function
            )
        else:
            self._corrupted.add((corruption.host, corruption.function))
        self.corruptions_marked += 1
        self._notify(
            "fault.corruption.marked",
            corruption.host,
            function=corruption.function,
        )

    # -- restore-time validation ---------------------------------------

    def check_snapshot(self, host_id: str, function: str) -> bool:
        """True if ``function``'s artefacts on ``host_id`` are
        currently corrupted. Detection clears the mark: validation
        failed, the artefacts are rebuilt, and the *next* restore
        sees healthy files."""
        key = (host_id, function)
        if key in self._corrupted:
            self._corrupted.discard(key)
            self.corruptions_detected += 1
            self._notify(
                "fault.corruption.detected", host_id, function=function
            )
            return True
        return False

    # -- reporting -----------------------------------------------------

    def summary(self) -> Dict[str, int]:
        doc = {
            "device_windows_opened": self.device_windows_opened,
            "device_windows_closed": self.device_windows_closed,
            "host_crashes": self.host_crashes,
            "host_reboots": self.host_reboots,
            "corruptions_marked": self.corruptions_marked,
            "corruptions_detected": self.corruptions_detected,
            "corruptions_detected_restore": self.corruptions_detected,
            "corruptions_detected_scrub": 0,
            "fail_slows_applied": self.fail_slows_applied,
            "fail_slows_recovered": self.fail_slows_recovered,
        }
        if self.durability is not None:
            d = self.durability
            doc["corruptions_detected"] = (
                d.detected_restore + d.detected_scrub
            )
            doc["corruptions_detected_restore"] = d.detected_restore
            doc["corruptions_detected_scrub"] = d.detected_scrub
            doc.update(d.summary())
        return doc
