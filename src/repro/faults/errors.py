"""The injected-failure exception hierarchy.

These exceptions model *environmental* failures — a device returning
an I/O error, a machine losing power, a snapshot file failing its
checksum — as opposed to :class:`~repro.sim.SimulationError`, which
flags misuse of the simulation kernel itself. The base class and
:class:`DeviceError` are defined in :mod:`repro.storage.errors`, so
the block device can raise them without importing the fault-injection
machinery above it; this module re-exports them with the rest.

The recovery layer treats any :class:`FaultError` as retryable except
:class:`DeadlineExceeded`, which marks an invocation that ran out of
its end-to-end time budget.
"""

from __future__ import annotations

from repro.storage.errors import DeviceError, FaultError

__all__ = [
    "DeadlineExceeded",
    "DeviceError",
    "FaultError",
    "HostCrashed",
    "SnapshotCorrupted",
]


class HostCrashed(FaultError):
    """The host serving an invocation crashed mid-flight."""

    def __init__(self, host_id: str):
        super().__init__(f"host {host_id} crashed")
        self.host_id = host_id


class SnapshotCorrupted(FaultError):
    """A snapshot artefact failed validation at restore time."""

    def __init__(self, host_id: str, function: str):
        super().__init__(
            f"snapshot for {function!r} on {host_id} failed validation"
        )
        self.host_id = host_id
        self.function = function


class DeadlineExceeded(FaultError):
    """An invocation exceeded its end-to-end deadline.

    Not retryable: the time budget is already spent.
    """

    def __init__(self, function: str, deadline_us: float):
        super().__init__(
            f"invocation of {function!r} exceeded its "
            f"{deadline_us / 1000:.1f} ms deadline"
        )
        self.function = function
        self.deadline_us = deadline_us
