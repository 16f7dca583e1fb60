"""userfaultfd: user-level page-fault delegation.

REAP (§2.5, §3.3) registers the guest memory region with userfaultfd
so a user-space handler resolves faults: the kernel parks the
faulting vCPU, wakes the handler thread, the handler produces the
page (from its working-set buffer or by reading the memory file) and
installs it with ``UFFDIO_COPY``, then wakes the vCPU. Each hop costs
microseconds, and the vCPU cannot resume instantly — KVM blocks
waiting for the guest CPU to become runnable again (§6.4's
``kvm_vcpu_block`` time) — which is exactly why REAP underperforms
when many faults fall outside its working set.

The kernel's legs (wake-up, copy, resume stall) are priced by the
fault classifier (:meth:`repro.host.fault.FaultHandler.classify`);
the handler's own work is a caller-provided function, so REAP's logic
lives in :mod:`repro.core.reap`, not in the substrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from repro.host.params import HostParams
from repro.sim import Environment, SimulationError

#: A handler receives the faulting page and the instant its thread
#: wakes. Changing no simulated state, it answers either
#: ``(content, end, read)`` — the token to install, the instant its
#: work ends and the readahead read it issues
#: (:class:`~repro.host.readahead.WindowRead`, priced on an idle
#: device, or ``None``) — or, when its work must block, a generator
#: that yields simulation events and returns ``(content, read)``.
UffdHandler = Callable[[int, float], Any]


@dataclass
class UffdRegistration:
    """A registered address range and its user-space handler."""

    start: int
    npages: int
    handler: UffdHandler

    @property
    def end(self) -> int:
        return self.start + self.npages

    def covers(self, page: int) -> bool:
        return self.start <= page < self.end


class UserfaultfdManager:
    """Tracks userfaultfd registrations for one address space."""

    def __init__(self, env: Environment, params: HostParams):
        self.env = env
        self.params = params
        self._registrations: List[UffdRegistration] = []
        #: Faults delegated to user space (paper counts these).
        self.delegated_faults = 0

    def register(
        self, start: int, npages: int, handler: UffdHandler
    ) -> UffdRegistration:
        """Register ``[start, start+npages)`` with ``handler``."""
        if npages < 1:
            raise SimulationError("empty uffd registration")
        for existing in self._registrations:
            if start < existing.end and existing.start < start + npages:
                raise SimulationError("overlapping uffd registrations")
        registration = UffdRegistration(start, npages, handler)
        self._registrations.append(registration)
        return registration

    def lookup(self, page: int) -> Optional[UffdRegistration]:
        """The registration covering ``page``, if any."""
        for registration in self._registrations:
            if registration.covers(page):
                return registration
        return None
