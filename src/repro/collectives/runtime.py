"""Event-driven collective execution over the fabric.

The analytic alpha–beta models in :mod:`repro.collectives.primitives`
price collectives in closed form.  This module *executes* a ring
collective step by step on the simulation kernel, moving each segment as
a flow over the actual CLOS links with max-min bandwidth sharing — both
a validation of the closed forms (they must agree on a clean fabric) and
the tool for studying collectives under degraded links, background
traffic, or heterogeneous paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..network.flow import Flow, check_links_up, max_min_fair_rates
from ..network.link import Link
from ..network.topology import ClosFabric
from ..sim import Process, Simulator
from .fabric import PfcPenaltyModel, price_routed_step


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

    @property
    def slowest_step(self) -> float:
        return max((s.duration for s in self.steps), default=0.0)


class RingCollectiveRuntime:
    """Executes ring collectives between nodes of a fabric."""

    def __init__(
        self,
        fabric: ClosFabric,
        node_of_rank: Sequence[int],
        rail: int = 0,
        per_hop_latency: float = 1e-6,
        software_latency: float = 7e-6,
        cc_efficiency: float = 1.0,
        flow_demand: Optional[float] = None,
        penalty: Optional[PfcPenaltyModel] = None,
    ) -> None:
        """``cc_efficiency``/``flow_demand``/``penalty`` opt into the
        fabric backend's derating (see :mod:`repro.collectives.fabric`);
        the defaults (ideal transport, unbounded demand, no PFC) keep the
        historical clean-fabric behaviour that matches the alpha-beta
        closed forms."""
        if not node_of_rank:
            raise ValueError("need at least one rank")
        self.fabric = fabric
        self.node_of_rank = list(node_of_rank)
        self.rail = rail
        self.per_hop_latency = per_hop_latency
        self.software_latency = software_latency
        self.cc_efficiency = cc_efficiency
        self.flow_demand = flow_demand
        self.penalty = penalty

    def _step_paths(self) -> List[List[Link]]:
        """The neighbour-pair link paths used by every ring step."""
        n = len(self.node_of_rank)
        paths = []
        for i in range(n):
            src = self.node_of_rank[i]
            dst = self.node_of_rank[(i + 1) % n]
            if src == dst:
                paths.append([])  # same host: modelled as instantaneous here
            else:
                paths.append(self.fabric.path(src, dst, rail=self.rail, flow_id=i))
        return paths

    def _step_flows(self) -> List[Flow]:
        """Inter-node flows of one ring step (same-host pairs skipped)."""
        per_flow_demand = float("inf") if self.flow_demand is None else self.flow_demand
        return [
            Flow(flow_id=i, path=path, demand=per_flow_demand)
            for i, path in enumerate(self._step_paths())
            if path
        ]

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
        if kind == "all_gather" or kind == "reduce_scatter":
            n_steps = n - 1
        elif kind == "all_reduce":
            n_steps = 2 * (n - 1)
        else:
            raise ValueError(f"unsupported collective {kind!r}")
        if n == 1 or size == 0 or n_steps == 0:
            run = CollectiveRun(kind=kind, n_ranks=n, total_time=0.0)
            self._emit_telemetry(
                hub, run, size, rank, start=(sim.now if sim else 0.0) + at
            )
            return run

        sim = sim or Simulator()
        start = sim.now
        # The ring's steps are identical: one flow set and one max-min
        # allocation serve them all.  A link taken down mid-collective
        # fails the next step that crosses it instead of reusing the
        # allocation.
        flows = self._step_flows()
        max_min_fair_rates(flows)
        segment = size / n
        steps: List[RingStepResult] = []
        done = {"t": 0.0}

        def driver():
            for step in range(n_steps):
                check_links_up(flows)
                cost = price_routed_step(
                    flows,
                    segment,
                    demand=self.flow_demand,
                    software_latency=self.software_latency,
                    cc_efficiency=self.cc_efficiency,
                    penalty=self.penalty,
                )
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
            # Rail index doubles as the gauge's rank/tid, keeping one
            # series per rail.
            first = run.steps[0]
            t = start + run.total_time
            hub.sample(
                "network", "ring_link_utilization", t=t, value=first.utilization,
                rank=self.rail,
            )
            hub.sample(
                "network", "ring_max_link_load", t=t, value=float(first.max_link_load),
                rank=self.rail,
            )


def concurrent_rings_time(
    fabric: ClosFabric,
    rings: List[Sequence[int]],
    size: float,
    rails: Optional[List[int]] = None,
) -> float:
    """One ring step of several *simultaneous* rings sharing the fabric.

    Used to study DP-ring contention: all rings' neighbour transfers are
    active at once; the returned time is the slowest transfer's, i.e. the
    stall every ring observes at each pipeline step.
    """
    if not rings:
        raise ValueError("need at least one ring")
    rails = rails if rails is not None else [i % fabric.rails for i in range(len(rings))]
    flows: List[Flow] = []
    fid = 0
    for ring, rail in zip(rings, rails):
        n = len(ring)
        for i in range(n):
            src, dst = ring[i], ring[(i + 1) % n]
            if src == dst:
                continue
            flows.append(Flow(flow_id=fid, path=fabric.path(src, dst, rail, flow_id=fid)))
            fid += 1
    if not flows:
        return 0.0
    max_min_fair_rates(flows)
    segment = size / max(len(r) for r in rings)
    return max(segment / f.rate + sum(l.latency for l in f.path) for f in flows)
