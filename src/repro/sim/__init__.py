"""Discrete-event simulation kernel.

A small, dependency-free engine in the style of SimPy: an
:class:`~repro.sim.engine.Environment` owns a simulated clock and an
event heap; *processes* are Python generators that ``yield`` events
(timeouts, other processes, resource requests) and are resumed when
those events fire.

All FaaSnap timing results in this repository are produced by running
host, disk, guest and daemon models as concurrent processes on this
kernel, so that contention (e.g. the FaaSnap loader racing guest page
faults for the disk) emerges from the simulation instead of being
hand-computed.
"""

from repro.sim.engine import (
    AllFailed,
    AllOf,
    AnyOf,
    Environment,
    Event,
    FirstSuccess,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from repro.sim.resources import Resource, ResourceRequest

__all__ = [
    "AllFailed",
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "FirstSuccess",
    "Interrupt",
    "Process",
    "Resource",
    "ResourceRequest",
    "SimulationError",
    "Timeout",
]
