"""Storage-layer failures.

:class:`FaultError` is the root of the injected-failure hierarchy
(:mod:`repro.faults.errors` re-exports it with the rest). It lives
here, in a leaf module, because the block device is the lowest layer
that raises one: importing it must not pull in the fault-injection
and recovery machinery, which itself sits on top of storage.
"""

from __future__ import annotations


class FaultError(Exception):
    """Base class for injected environmental failures."""


class DeviceError(FaultError):
    """A block-device read failed (injected error-rate window)."""

    def __init__(self, device: str, offset: int, nbytes: int):
        super().__init__(f"I/O error on {device} reading {nbytes}B @ {offset}")
        self.device = device
        self.offset = offset
        self.nbytes = nbytes
