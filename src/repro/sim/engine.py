"""Discrete-event simulation engine.

This is the substrate on which every MegaScale subsystem runs.  It is a
small, deterministic event-loop simulator in the style of SimPy: a
:class:`Simulator` owns a priority queue of timestamped events, and
generator-based processes (see :mod:`repro.sim.process`) advance the clock
by yielding *waitables* (timeouts, events, other processes).

The engine is intentionally dependency-free and fully deterministic: two
runs with the same seed and the same process structure produce identical
event orders.  Ties in time are broken by insertion order.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised for structural errors in the simulation (not model errors)."""


class Event:
    """A one-shot occurrence on the simulation timeline.

    Processes may wait on an event; triggering it wakes all waiters at the
    current simulation time.  An event carries an optional ``value`` that is
    delivered to waiters, and may instead *fail* with an exception, which is
    re-raised inside each waiting process.
    """

    __slots__ = ("sim", "callbacks", "_triggered", "_value", "_exception", "name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._triggered = False
        self._value: Any = None
        self._exception: Optional[BaseException] = None

    @property
    def triggered(self) -> bool:
        """Whether the event has occurred (successfully or not)."""
        return self._triggered

    @property
    def ok(self) -> bool:
        """Whether the event occurred without an exception."""
        return self._triggered and self._exception is None

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError(f"event {self.name!r} has not been triggered")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exception

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering ``value`` to waiters."""
        if self._triggered:
            raise SimulationError(f"event {self.name!r} already triggered")
        self._triggered = True
        self._value = value
        self.sim._schedule_event(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception re-raised in waiters."""
        if self._triggered:
            raise SimulationError(f"event {self.name!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._exception = exception
        self.sim._schedule_event(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback(event)``; fires when the event triggers.

        If the event has already been processed the callback fires via a
        zero-delay event so that ordering guarantees are preserved.
        """
        if self.callbacks is not None:
            self.callbacks.append(callback)
        else:
            # Already processed: deliver asynchronously at the current time.
            stub = Event(self.sim, name=f"{self.name}:late")
            stub._value = self._value
            stub._exception = self._exception
            stub._triggered = True
            stub.callbacks = [lambda _stub: callback(self)]
            self.sim._schedule_event(stub)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self._triggered else "pending"
        return f"<Event {self.name!r} {state} at t={self.sim.now:.6f}>"


class Timeout(Event):
    """An event that triggers after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if not delay >= 0:  # also rejects NaN, which would sort before every event
            raise ValueError(f"timeout delay must be >= 0, got {delay}")
        super().__init__(sim, name=f"timeout({delay:g})")
        self.delay = delay
        self._triggered = True
        self._value = value
        sim._schedule_event(self, delay=delay)


class Simulator:
    """The event loop: a clock plus a priority queue of pending events."""

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[Tuple[float, int, Event]] = []
        self._counter = itertools.count()
        self._active = False

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    # -- event construction helpers ------------------------------------

    def event(self, name: str = "") -> Event:
        """Create a fresh, untriggered event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    # -- scheduling -----------------------------------------------------

    def _schedule_event(self, event: Event, delay: float = 0.0) -> None:
        heapq.heappush(self._queue, (self._now + delay, next(self._counter), event))

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Run ``callback()`` after ``delay`` simulated seconds."""
        ev = self.timeout(delay)
        ev.add_callback(lambda _ev: callback())
        return ev

    # -- execution ------------------------------------------------------

    def step(self) -> float:
        """Process the single next event; return its timestamp."""
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        when, _seq, event = heapq.heappop(self._queue)
        if when < self._now - 1e-12:
            raise SimulationError("event scheduled in the past")
        self._now = max(self._now, when)
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks or ():
            callback(event)
        return when

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or the clock reaches ``until``.

        Returns the simulation time at which execution stopped.  An
        ``until`` before the current time would rewind the clock, so it
        raises ``ValueError``.
        """
        if self._active:
            raise SimulationError("simulator is not reentrant")
        if until is not None and not until >= self._now:
            raise ValueError(f"run(until={until}) is before the current time {self._now}")
        self._active = True
        try:
            while self._queue:
                when = self._queue[0][0]
                if until is not None and when > until:
                    self._now = until
                    break
                self.step()
            else:
                if until is not None and until > self._now:
                    self._now = until
        finally:
            self._active = False
        return self._now

    def peek(self) -> float:
        """Timestamp of the next pending event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    @property
    def pending_events(self) -> int:
        return len(self._queue)
