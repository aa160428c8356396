"""Shared resources for simulated processes.

:class:`Resource` is a counted resource (e.g. PCIe lanes, disk readers)
with FIFO queuing.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from .engine import Event, Simulator, SimulationError


class Resource:
    """A resource with integer capacity and FIFO acquisition order."""

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "resource") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    def acquire(self) -> Event:
        """Return an event that triggers once a slot is held."""
        ev = self.sim.event(name=f"{self.name}:acquire")
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.succeed(self)
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        """Release one held slot, waking the oldest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError(f"release() of idle resource {self.name!r}")
        if self._waiters:
            # Hand the slot directly to the next waiter.
            self._waiters.popleft().succeed(self)
        else:
            self._in_use -= 1
