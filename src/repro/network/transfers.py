"""Event-driven transfer engine with dynamic bandwidth sharing.

Executes a set of byte transfers over the fabric on the simulation
clock.  Whenever a transfer starts or finishes, every active flow's rate
is recomputed with max-min fairness — so a long transfer speeds up when
a competitor departs, exactly like TCP/RDMA flows on a real network.
This is the highest-fidelity layer of the network stack: the analytic
collective models are validated against it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..sim.engine import Event, Simulator
from .flow import Flow, max_min_fair_rates
from .link import Link

_transfer_ids = itertools.count()


@dataclass
class Transfer:
    """One byte stream over a fixed path."""

    path: List[Link]
    size: float
    transfer_id: int = field(default_factory=lambda: next(_transfer_ids))
    remaining: float = field(init=False)
    rate: float = field(default=0.0, init=False)
    started_at: Optional[float] = field(default=None, init=False)
    finished_at: Optional[float] = field(default=None, init=False)
    done: Optional[Event] = field(default=None, init=False)

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError("transfer size must be positive")
        self.remaining = self.size


class TransferEngine:
    """Schedules transfers and reallocates bandwidth on every change."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.active: Dict[int, Transfer] = {}
        self._generation = 0  # bumped on every reallocation; stale timers no-op
        self._last_update = 0.0
        self.completed: List[Transfer] = []

    # -- public API ------------------------------------------------------------

    def submit(self, path: List[Link], size: float) -> Transfer:
        """Start a transfer now; returns it with a waitable ``done`` event."""
        transfer = Transfer(path=path, size=size)
        transfer.done = self.sim.event(name=f"transfer-{transfer.transfer_id}")
        transfer.started_at = self.sim.now
        self._advance_progress()
        self.active[transfer.transfer_id] = transfer
        self._reallocate_and_arm()
        return transfer

    def run_to_completion(self) -> float:
        """Drive the simulator until every submitted transfer finishes."""
        self.sim.run()
        return self.sim.now

    # -- internals ----------------------------------------------------------------

    def _advance_progress(self) -> None:
        """Account bytes moved since the last rate change."""
        elapsed = self.sim.now - self._last_update
        if elapsed > 0:
            for transfer in self.active.values():
                moved = transfer.rate * elapsed
                transfer.remaining = max(0.0, transfer.remaining - moved)
                for link in transfer.path:
                    link.carry(moved)
        self._last_update = self.sim.now

    def _reallocate_and_arm(self) -> None:
        """Recompute max-min rates; schedule the next completion."""
        self._generation += 1  # any timer armed before now is stale
        if not self.active:
            return
        flows = [
            Flow(flow_id=tid, path=t.path)
            for tid, t in self.active.items()
        ]
        rates = max_min_fair_rates(flows)
        for tid, transfer in self.active.items():
            transfer.rate = rates.get(tid, 0.0)
            if transfer.rate <= 0 and transfer.path:
                raise RuntimeError(f"transfer {tid} starved of bandwidth")

        # Next completion: the transfer with the least remaining time.
        def eta(t: Transfer) -> float:
            return t.remaining / t.rate if t.rate > 0 else 0.0

        soonest = min(self.active.values(), key=eta)
        delay = eta(soonest)
        timer = self.sim.timeout(delay)
        generation = self._generation

        def on_fire(_event: Event, expected: Transfer = soonest) -> None:
            if generation != self._generation:
                return  # rates changed since this timer was armed
            self._complete(expected)

        timer.add_callback(on_fire)

    def _complete(self, transfer: Transfer) -> None:
        self._advance_progress()
        # Floating-point slack: finish everything that's effectively done.
        finished = [
            t for t in self.active.values() if t.remaining <= max(1e-6 * t.size, 1e-3)
        ]
        if transfer not in finished:
            finished.append(transfer)
        for t in finished:
            t.remaining = 0.0
            t.finished_at = self.sim.now
            self.active.pop(t.transfer_id, None)
            self.completed.append(t)
            if t.done is not None and not t.done.triggered:
                t.done.succeed(t)
        self._reallocate_and_arm()
