"""Per-layer host-time accounting for the traced benchmark run.

The traced run wraps public functions of each simulator layer, from
outside the program, and keeps a self-time stack across the layer
boundaries: a layer's self time is the wall time of its calls minus
the time of the nested layer calls they made. Generator functions
(the simulator's process helpers) are timed per resumption, because a
process helper runs in slices between the events it waits on.

Nothing is installed unless :func:`install` is called, and
:func:`install` returns the function that removes every wrapper again,
so the untraced run executes the program untouched.
"""

from __future__ import annotations

import functools
import inspect
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Tuple


class LayerClock:
    """Self time per layer, plus plain counters (pipe bytes)."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[list] = []

    def enter(self, layer: str) -> None:
        self._stack.append([layer, perf_counter(), 0.0])

    def exit(self) -> None:
        layer, started, nested = self._stack.pop()
        elapsed = perf_counter() - started
        self.self_s[layer] += elapsed - nested
        if self._stack:
            self._stack[-1][2] += elapsed

    def snapshot(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        return dict(self.self_s), dict(self.counts)


def _timed_call(fn: Callable, layer: str, clock: LayerClock) -> Callable:
    enter, exit_ = clock.enter, clock.exit

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            exit_()

    return wrapper


def _timed_generator(fn: Callable, layer: str, clock: LayerClock) -> Callable:
    enter, exit_ = clock.enter, clock.exit

    def resume(gen, value, error):
        enter(layer)
        try:
            if error is not None:
                return gen.throw(error)
            return gen.send(value)
        finally:
            exit_()

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        value = error = None
        # The awaited event travels through a one-slot box so this
        # frame holds no reference to it while the process waits (the
        # kernel recycles timeouts nobody else references).
        box: list = []
        while True:
            try:
                box.append(resume(gen, value, error))
            except StopIteration as stop:
                return stop.value
            value = error = None
            try:
                value = yield box.pop()
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # thrown in by the kernel
                error = exc

    return wrapper


def _counting_sent(fn: Callable, clock: LayerClock) -> Callable:
    @functools.wraps(fn)
    def wrapper(self, buf, *args, **kwargs):
        clock.counts["shard.bytes_sent"] += len(buf)
        return fn(self, buf, *args, **kwargs)

    return wrapper


def _counting_received(fn: Callable, clock: LayerClock) -> Callable:
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        received = fn(self, *args, **kwargs)
        clock.counts["shard.bytes_received"] += received.getbuffer().nbytes
        return received

    return wrapper


def _public_methods(cls) -> List[str]:
    return [
        name
        for name, member in vars(cls).items()
        if not name.startswith("_") and inspect.isfunction(member)
    ]


def _targets(scope: str) -> List[Tuple[str, object, str]]:
    """``(layer, owner, attribute)`` triples to wrap. ``scope`` is
    ``"all"`` (every layer of a single-process run) or ``"router"``
    (only what runs in the parent of a sharded run: placement and
    the shard pipes)."""
    from multiprocessing.connection import Connection

    from repro.cluster import placement

    targets: List[Tuple[str, object, str]] = []
    for cls in (
        placement.PlacementPolicy,
        *placement.PlacementPolicy.__subclasses__(),
    ):
        if "choose" in vars(cls):
            targets.append(("cluster.placement", cls, "choose"))
    targets.append(("shard.ipc", Connection, "recv"))
    if scope == "router":
        return targets

    from repro.core import host as core_host
    from repro.core import loader, restore
    from repro.faults.durability import DurabilityManager
    from repro.host.fault import FaultHandler
    from repro.host.page_cache import PageCache
    from repro.metrics.causal import CausalRecorder
    from repro.metrics.flight import FlightRecorder
    from repro.metrics.slo import SloMonitor
    from repro.metrics.telemetry import HostTelemetry, Sampler
    from repro.service.core import ClusterService
    from repro.sim import Environment
    from repro.storage.device import BlockDevice
    from repro.storage.filestore import FileStore, StoredFile
    from repro.vm import snapshot
    from repro.vm.vcpu import VCpu
    from repro.vm.vmm import MicroVM

    targets += [
        ("sim", Environment, "run"),
        ("sim", Environment, "advance_to"),
        ("host.fault", FaultHandler, "access"),
        ("host.fault", FaultHandler, "fast_access"),
        ("storage.device", BlockDevice, "read"),
        ("storage.filestore", StoredFile, "read"),
        ("storage.filestore", FileStore, "create"),
        ("vm.vcpu", VCpu, "run_trace"),
        ("vm.vmm", MicroVM, "restore"),
        ("vm.vmm", MicroVM, "apply_plan"),
        ("vm.vmm", MicroVM, "cold_boot"),
        ("durability.checksum", StoredFile, "chunk_checksums"),
        ("durability.verify", DurabilityManager, "verify_restore"),
        ("durability.verify", DurabilityManager, "scrub_host"),
        ("obs.causal", CausalRecorder, "emit"),
        ("obs.slo", SloMonitor, "observe"),
        ("obs.flight", FlightRecorder, "record"),
        ("obs.telemetry", HostTelemetry, "absorb_fault_records"),
        ("obs.telemetry", Sampler, "sample"),
        ("service", ClusterService, "execute"),
        ("service", ClusterService, "execute_entry"),
    ]
    targets += [
        ("host.page_cache", PageCache, name)
        for name in _public_methods(PageCache)
    ]
    # Module functions are also bound by name in the modules that
    # import them, so each importing namespace is patched too.
    for module in (snapshot, restore):
        targets.append(("vm.snapshot", module, "create_snapshot"))
        targets.append(("vm.snapshot", module, "capture_memory_contents"))
    for module in (loader, restore):
        targets.append(("core.loader", module, "loading_set_loader"))
        targets.append(("core.loader", module, "ordered_pages_loader"))
    for module in (restore, core_host):
        targets.append(("core.record", module, "run_record_phase"))
    return targets


def install(clock: LayerClock, scope: str = "all") -> Callable[[], None]:
    """Wrap every layer boundary of ``scope``; return the uninstaller."""
    from multiprocessing.connection import Connection

    saved: List[Tuple[object, str, object]] = []
    for layer, owner, attr in _targets(scope):
        if inspect.isclass(owner):
            # Patch the class that defines the method (e.g. ``recv``
            # lives on a base class of ``Connection``).
            owner = next(c for c in owner.__mro__ if attr in vars(c))
        original = vars(owner)[attr]
        if inspect.isgeneratorfunction(original):
            wrapped = _timed_generator(original, layer, clock)
        else:
            wrapped = _timed_call(original, layer, clock)
        saved.append((owner, attr, original))
        setattr(owner, attr, wrapped)
    # Pipe payload sizes: the byte-level send/receive primitives of
    # ``multiprocessing`` connections.
    for attr, counting in (
        ("_send_bytes", _counting_sent),
        ("_recv_bytes", _counting_received),
    ):
        original = vars(Connection).get(attr)
        if original is not None:
            saved.append((Connection, attr, original))
            setattr(Connection, attr, counting(original, clock))

    def uninstall() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall
