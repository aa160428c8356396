"""Event-driven collective execution over the fabric.

The analytic alpha–beta models in :mod:`repro.collectives.primitives`
price collectives in closed form.  This module *executes* a ring
collective step by step on the simulation kernel: every step moves each
segment over the fabric cost model's routed step
(:func:`~repro.collectives.fabric.ring_flows` priced by
:func:`~repro.collectives.fabric.routed_step_cost`) with max-min
bandwidth sharing — both a validation of the closed forms (they must
agree on a clean fabric) and the tool for studying collectives under
degraded links, background traffic, or heterogeneous paths.  The
runtime prices an ideal transport: uncapped flows, full efficiency, no
PFC penalty and :data:`SOFTWARE_LATENCY` per step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..network.flow import check_links_up
from ..network.topology import ClosFabric
from ..sim import Process, Simulator
from .fabric import ring_flows, ring_steps, routed_step_cost

# Per-step launch overhead of the executed ring (NCCL's step barrier).
SOFTWARE_LATENCY = 7e-6


@dataclass
class RingStepResult:
    """Timing of one ring step (all ranks transfer concurrently)."""

    step: int
    duration: float
    slowest_pair: int  # ring position of the slowest transfer
    max_link_load: int = 0  # flows sharing the most-loaded link
    utilization: float = 0.0  # bottleneck link's allocated-rate utilization
    paused_flows: int = 0  # flows paying a PFC penalty this step


@dataclass
class CollectiveRun:
    """Outcome of executing one collective on the event kernel."""

    kind: str
    n_ranks: int
    total_time: float
    steps: List[RingStepResult] = field(default_factory=list)


class RingCollectiveRuntime:
    """Executes ring collectives between nodes of a fabric."""

    def __init__(self, fabric: ClosFabric, node_of_rank: Sequence[int]) -> None:
        if not node_of_rank:
            raise ValueError("need at least one rank")
        self.fabric = fabric
        self.node_of_rank = list(node_of_rank)

    def run(
        self,
        kind: str,
        size: float,
        sim: Optional[Simulator] = None,
        hub=None,
        rank: int = 0,
        at: float = 0.0,
    ) -> CollectiveRun:
        """Execute ``kind`` of a ``size``-byte tensor; returns its timing.

        Each ring step is a barrier: all pairwise transfers proceed
        concurrently with max-min shared bandwidth, and the step ends when
        the slowest finishes (NCCL's synchronous ring pipeline).  A step
        whose flows cross a down link raises ``RuntimeError``, also when
        another process on ``sim`` takes the link down mid-collective
        (:meth:`~repro.network.topology.ClosFabric.set_link_state`).
        With a :class:`~repro.observability.TelemetryHub` as ``hub`` the whole
        collective lands as one span on the ``collectives`` lane (row
        ``rank``) with bytes/algorithm attributes plus congestion evidence
        (``max_link_load``/``paused_flows``), offset by ``at`` so callers
        can place it on an absolute scenario clock.
        """
        if size < 0:
            raise ValueError("size must be non-negative")
        n = len(self.node_of_rank)
        n_steps = ring_steps(kind, n)
        if n == 1 or size == 0:
            run = CollectiveRun(kind=kind, n_ranks=n, total_time=0.0)
            self._emit_telemetry(
                hub, run, size, rank, start=(sim.now if sim else 0.0) + at
            )
            return run

        sim = sim or Simulator()
        start = sim.now
        # The ring's steps are identical: one routing and one price serve
        # them all.  A link taken down mid-collective fails the next step
        # that crosses it instead of reusing the price.
        flows = ring_flows(self.fabric, self.node_of_rank, float("inf"))
        cost = routed_step_cost(flows, size / n, SOFTWARE_LATENCY, 1.0, None)
        steps: List[RingStepResult] = []
        done = {"t": 0.0}

        def driver():
            for step in range(n_steps):
                check_links_up(flows)
                steps.append(
                    RingStepResult(
                        step,
                        cost.duration,
                        cost.slowest_flow,
                        cost.max_link_load,
                        cost.utilization,
                        cost.paused_flows,
                    )
                )
                yield sim.timeout(cost.duration)
            done["t"] = sim.now

        ring = Process(sim, driver(), name=f"{kind}-ring")
        sim.run()
        if ring.exception is not None:
            raise ring.exception
        run = CollectiveRun(kind=kind, n_ranks=n, total_time=done["t"] - start, steps=steps)
        self._emit_telemetry(hub, run, size, rank, start=start + at)
        return run

    def _emit_telemetry(
        self, hub, run: CollectiveRun, size: float, rank: int, start: float
    ) -> None:
        if hub is None:
            return
        worst = max(run.steps, key=lambda s: s.max_link_load, default=None)
        hub.span(
            "collectives",
            run.kind,
            rank,
            start,
            start + run.total_time,
            stream="comm",
            bytes=size,
            algorithm="ring",
            n_ranks=run.n_ranks,
            steps=len(run.steps),
            max_link_load=worst.max_link_load if worst else 0,
            paused_flows=worst.paused_flows if worst else 0,
            utilization=worst.utilization if worst else 0.0,
        )
        hub.count("collectives", "executed", 1, kind=run.kind)
        hub.count("collectives", "bytes_moved", size)
        for step in run.steps:
            hub.observe("collectives", "step_time", step.duration, kind=run.kind)
        if run.steps:
            # The ring rides rail 0, whose index is the gauge's rank/tid.
            first = run.steps[0]
            t = start + run.total_time
            hub.sample(
                "network", "ring_link_utilization", t=t, value=first.utilization, rank=0
            )
            hub.sample(
                "network", "ring_max_link_load", t=t, value=float(first.max_link_load),
                rank=0,
            )
