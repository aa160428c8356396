"""Generator-based processes for the simulation engine.

A *process* is a Python generator that yields waitables:

* :class:`~repro.sim.engine.Event` (including timeouts) — suspend until it
  triggers; ``yield`` evaluates to the event's value (or re-raises its
  exception inside the generator).
* another :class:`Process` — suspend until that process finishes; the yield
  evaluates to its return value.
* :class:`AllOf` / :class:`AnyOf` — composite conditions.

A process is itself an :class:`Event` that triggers when the generator
returns, so processes compose: a parent may ``yield child``.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable, List, Optional

from .engine import Event, Simulator, SimulationError


class Process(Event):
    """Wraps a generator and drives it through the event loop."""

    __slots__ = ("_generator",)

    def __init__(
        self,
        sim: Simulator,
        generator: Generator[Any, Any, Any],
        name: str = "",
    ) -> None:
        if not hasattr(generator, "send"):
            raise TypeError(f"process body must be a generator, got {type(generator)!r}")
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        self._generator = generator
        # Kick off on the next event-loop tick at the current time.
        start = Event(sim, name=f"{self.name}:start")
        start.add_callback(self._resume)
        start._triggered = True
        sim._schedule_event(start)

    # -- internal driving -------------------------------------------------

    def _resume(self, trigger: Event) -> None:
        if trigger.exception is not None:
            self._advance(throw=trigger.exception)
        else:
            self._advance(value=trigger._value)

    def _advance(self, value: Any = None, throw: Optional[BaseException] = None) -> None:
        try:
            if throw is not None:
                target = self._generator.throw(throw)
            else:
                target = self._generator.send(value)
        except StopIteration as stop:
            self.succeed(getattr(stop, "value", None))
            return
        except BaseException as exc:  # noqa: BLE001 - propagate to waiters
            self.fail(exc)
            return
        try:
            event = _as_event(self.sim, target)
        except SimulationError as exc:
            self._generator.close()
            self.fail(exc)
            return
        event.add_callback(self._resume)


def _as_event(sim: Simulator, target: Any) -> Event:
    if isinstance(target, Event):
        return target
    if hasattr(target, "send"):
        return Process(sim, target)
    raise SimulationError(f"process yielded a non-waitable: {target!r}")


class AllOf(Event):
    """Triggers when every child event has triggered.

    The value is the list of child values in the order given.  If any child
    fails, this condition fails with the first failure.
    """

    __slots__ = ("_children", "_remaining")

    def __init__(self, sim: Simulator, events: Iterable[Any], name: str = "all_of") -> None:
        super().__init__(sim, name=name)
        self._children: List[Event] = [_as_event(sim, e) for e in events]
        self._remaining = len(self._children)
        if self._remaining == 0:
            self.succeed([])
            return
        for child in self._children:
            child.add_callback(self._on_child)

    def _on_child(self, child: Event) -> None:
        if self.triggered:
            return
        if child.exception is not None:
            self.fail(child.exception)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([c._value for c in self._children])


class AnyOf(Event):
    """Triggers when the first child event triggers.

    The value is a ``(index, value)`` pair identifying which child fired.
    """

    __slots__ = ("_children",)

    def __init__(self, sim: Simulator, events: Iterable[Any], name: str = "any_of") -> None:
        super().__init__(sim, name=name)
        self._children = [_as_event(sim, e) for e in events]
        if not self._children:
            raise SimulationError("AnyOf requires at least one event")
        for index, child in enumerate(self._children):
            child.add_callback(lambda ev, i=index: self._on_child(i, ev))

    def _on_child(self, index: int, child: Event) -> None:
        if self.triggered:
            return
        if child.exception is not None:
            self.fail(child.exception)
            return
        self.succeed((index, child._value))
