"""Shared-resource primitives built on the event kernel.

:class:`Resource` is a counted FIFO resource (disk queue slots, CPU
slots, the FaaSnap loading lock).
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.sim.engine import Environment, Event, SimulationError


class ResourceRequest(Event):
    """Event granted when the resource has a free slot.

    Use as a context manager inside a process::

        req = resource.request()
        yield req
        try:
            ...critical section...
        finally:
            resource.release(req)
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource


class Resource:
    """A counted resource with FIFO granting order."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiting: Deque[ResourceRequest] = deque()

    @property
    def in_use(self) -> int:
        """Number of currently granted slots."""
        return self._in_use

    def request(self) -> ResourceRequest:
        """Ask for a slot; the returned event fires when granted."""
        req = ResourceRequest(self)
        if self._in_use < self.capacity:
            self._in_use += 1
            req.succeed()
        else:
            self._waiting.append(req)
        return req

    def release(self, request: ResourceRequest) -> None:
        """Return a granted slot (or cancel a waiting request)."""
        if request.resource is not self:
            raise SimulationError("release() of a request from another resource")
        if not request.triggered:
            self._waiting.remove(request)
            return
        if self._in_use <= 0:
            raise SimulationError("release() without a matching grant")
        self._in_use -= 1
        while self._waiting and self._in_use < self.capacity:
            nxt = self._waiting.popleft()
            self._in_use += 1
            nxt.succeed()
