"""The microVM monitor (Firecracker model).

Restoring a snapshot (paper §2.4) means: start the VMM process,
restore vCPU/device state from the vmstate file, and mmap the guest
memory. Stock Firecracker maps the *entire* memory file in one call;
FaaSnap instead applies a :class:`MappingPlan` — an ordered list of
``MAP_FIXED`` mappings forming the hierarchy of Figure 4. Every
mapped region costs an mmap() call (§4.6), which is why FaaSnap
merges adjacent loading-set regions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, List, Optional

from repro.host.fault import FaultHandler
from repro.host.page_cache import PageCache
from repro.host.params import HostParams
from repro.host.procfs import Procfs
from repro.host.uffd import UserfaultfdManager
from repro.host.vma import AddressSpace
from repro.sim import Environment, Event, Resource, SimulationError
from repro.storage.filestore import StoredFile
from repro.vm.snapshot import Snapshot
from repro.vm.vcpu import VCpu


@dataclass(frozen=True)
class VmmParams:
    """Fixed costs of VM lifecycle operations.

    Calibrated to the paper's Figure 1 setup bars: restoring a
    Firecracker snapshot takes tens of milliseconds of VMM start,
    device restore and network setup before any guest page is
    touched.
    """

    #: Starting the VMM process and its API handler.
    vmm_start_us: float = 28_000.0
    #: Restoring vCPU and virtual-device state from the vmstate file.
    vmstate_restore_us: float = 12_000.0
    #: Cold boot of the guest kernel (Firecracker boots a kernel in
    #: ~125 ms, §2.2); only used by the cold-boot reference path.
    cold_boot_us: float = 125_000.0


@dataclass(frozen=True)
class MapDirective:
    """One mmap() in a mapping plan. ``file=None`` maps anonymous."""

    start: int
    npages: int
    file: Optional[StoredFile] = None
    file_start_page: int = 0

    @property
    def is_anonymous(self) -> bool:
        return self.file is None


@dataclass
class MappingPlan:
    """An ordered list of MAP_FIXED mappings, applied bottom-up."""

    directives: List[MapDirective] = field(default_factory=list)

    def add_anonymous(self, start: int, npages: int) -> None:
        self.directives.append(MapDirective(start, npages))

    def add_file(
        self, start: int, npages: int, file: StoredFile, file_start_page: int
    ) -> None:
        self.directives.append(
            MapDirective(start, npages, file, file_start_page)
        )

    def __len__(self) -> int:
        return len(self.directives)


def full_file_plan(snapshot: Snapshot) -> MappingPlan:
    """Stock Firecracker: one mapping of the whole memory file."""
    plan = MappingPlan()
    plan.add_file(0, snapshot.num_pages, snapshot.memory_file, 0)
    return plan


class MicroVM:
    """A guest VM instance on the simulated host."""

    def __init__(
        self,
        env: Environment,
        host_params: HostParams,
        vmm_params: VmmParams,
        cache: PageCache,
        num_pages: int,
        label: str = "vm",
        cpu: Optional[Resource] = None,
        use_uffd: bool = False,
        batch_faults: bool = True,
    ):
        self.env = env
        self.host_params = host_params
        self.vmm_params = vmm_params
        self.cache = cache
        self.label = label
        self.space = AddressSpace(num_pages)
        self.uffd = (
            UserfaultfdManager(env, host_params) if use_uffd else None
        )
        self.handler = FaultHandler(
            env, host_params, cache, self.space, uffd=self.uffd, label=label
        )
        self.vcpu = VCpu(env, self.handler, cpu=cpu, batch_faults=batch_faults)
        self.procfs = Procfs(env, host_params, self.space)
        self._setup_done = False

    def restore(
        self, snapshot: Snapshot, plan: Optional[MappingPlan] = None
    ) -> Generator[Event, Any, float]:
        """Process helper: restore from ``snapshot``.

        Starts the VMM, reads the vmstate file from disk, and applies
        the mapping plan (stock full-file mapping when ``plan`` is
        None). Returns the setup time in microseconds.
        """
        if self._setup_done:
            raise SimulationError(f"{self.label}: VM already set up")
        start = self.env.now
        yield self.env.timeout(self.vmm_params.vmm_start_us)
        yield from snapshot.vmstate_file.read(0, snapshot.vmstate_file.num_pages)
        yield self.env.timeout(self.vmm_params.vmstate_restore_us)
        yield from self.apply_plan(plan or full_file_plan(snapshot))
        self._setup_done = True
        return self.env.now - start

    def apply_plan(self, plan: MappingPlan) -> Generator[Event, Any, None]:
        """Process helper: apply mappings in order, charging the mmap
        syscall cost per region."""
        for directive in plan.directives:
            yield self.env.timeout(self.host_params.mmap_region_us)
            if directive.is_anonymous:
                self.space.mmap_anonymous(directive.start, directive.npages)
            else:
                self.space.mmap_file(
                    directive.start,
                    directive.npages,
                    directive.file,
                    directive.file_start_page,
                )

    def cold_boot(
        self,
        contents: "dict[int, int]",
        runtime_init_us: float,
    ) -> Generator[Event, Any, float]:
        """Process helper: full cold start (paper §2.1).

        Starts the VMM, boots the guest kernel (~125 ms for
        Firecracker, §2.2), then initialises the runtime — starting
        the interpreter, installing code, importing libraries — which
        the paper reports takes "seconds to minutes". Afterwards the
        guest holds ``contents`` in anonymous memory with everything
        mapped, exactly like a warm VM. Returns the elapsed time.
        """
        if self._setup_done:
            raise SimulationError(f"{self.label}: VM already set up")
        start = self.env.now
        yield self.env.timeout(self.vmm_params.vmm_start_us)
        yield self.env.timeout(self.vmm_params.cold_boot_us)
        yield self.env.timeout(runtime_init_us)
        self.space.map_image(
            {page: value for page, value in contents.items() if value != 0}
        )
        self._setup_done = True
        return self.env.now - start

    def make_warm(self, snapshot: Snapshot) -> None:
        """Turn this VM into a *warm* VM that previously served an
        invocation (paper §3.1): guest memory is anonymous host
        memory holding the snapshot's contents, and every non-zero
        page is already mapped at both levels, so only first touches
        of new pages fault (cheap anonymous faults)."""
        if self._setup_done:
            raise SimulationError(f"{self.label}: VM already set up")
        # The snapshot's page map becomes the space's shared image, so
        # a warm start costs O(1) however large the guest (memory
        # files are immutable once written).
        self.space.map_image(snapshot.memory_file.pages)
        self._setup_done = True

    @property
    def is_set_up(self) -> bool:
        return self._setup_done
