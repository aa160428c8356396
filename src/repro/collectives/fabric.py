"""Flow-level collective cost backend (§3.6): the one routed ring step.

The alpha-beta models in :mod:`repro.collectives.primitives` price a
collective from a single bandwidth/latency pair, blind to where the
ranks actually sit.  This backend expands a ring collective into its
per-step flow set, routes every neighbour-pair flow over the
:class:`~repro.network.topology.ClosFabric` with deterministic ECMP
hashing, computes the step completion time under max-min fair link
sharing (:func:`repro.network.flow.max_min_fair_rates`), and applies a
PFC pause/retransmit penalty to flows whose path crosses an
oversubscribed uplink — so same-ToR placement, port splitting and ECMP
hash conflicts show up in collective *prices*, not just in standalone
network studies.

A routed step is three functions, shared by :class:`FabricCostModel`
and the event runtime (:mod:`repro.collectives.runtime`), which only
differ in the transport they price: :func:`ring_flows` routes a ring,
:func:`routed_step_cost` prices one step of it, and :func:`ring_steps`
counts the steps of a collective.

On an uncongested single-pod placement the fabric price degenerates
exactly to the alpha-beta model: every neighbour path is
nic -> ToR -> nic (two 1 us links) and :data:`RING_SOFTWARE_LATENCY`
tops the per-step latency up to
:data:`~repro.collectives.primitives.INTER_NODE_LATENCY`, while each
NIC-bound flow owns its links and runs at
``nic_rate * cc_efficiency`` — the same bandwidth the analytic model
charges for a same-pod ring.  Cross-pod rings pick up the extra switch
hops, ECMP link sharing, and PFC penalties on top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..exec.memo import get_cache
from ..network.flow import Flow, max_min_fair_rates
from ..network.link import Link
from ..network.topology import ClosFabric
from .primitives import DEFAULT_CC_EFFICIENCY

__all__ = [
    "DEFAULT_PFC_PENALTY",
    "FabricCollectiveCost",
    "FabricCostModel",
    "PfcPenaltyModel",
    "RING_SOFTWARE_LATENCY",
    "RoutedStepCost",
    "fabric_collective_cost",
    "ring_flows",
    "ring_steps",
    "routed_step_cost",
]

# Software/launch overhead added to every ring step.  Chosen so that a
# clean intra-pod path (two 1 us NIC<->ToR links) lands exactly on the
# analytic model's INTER_NODE_LATENCY of 12 us — which is what makes the
# fabric backend degenerate to the alpha-beta cost on a single-ToR group.
RING_SOFTWARE_LATENCY = 10e-6


@dataclass(frozen=True)
class PfcPenaltyModel:
    """Pause/retransmit derating for flows crossing oversubscribed links.

    When the offered load on a link exceeds its capacity, PFC back-
    pressure pauses the upstream senders; the paper's NCCL retransmit
    tuning (§3.6) bounds the damage but cannot remove it.  The model is
    deliberately coarse: a pause fraction growing linearly in the
    oversubscription beyond 1.0 (capped), plus one retransmit latency
    charged to any paused flow.  Frozen (hashable) so it can key the
    fabric memo cache.
    """

    pause_per_excess: float = 0.08  # pause fraction per unit oversubscription
    max_pause_fraction: float = 0.5
    retransmit_latency: float = 100e-6  # timeout + replay on a paused path

    def __post_init__(self) -> None:
        if self.pause_per_excess < 0:
            raise ValueError("pause_per_excess must be >= 0")
        if not 0 <= self.max_pause_fraction < 1:
            raise ValueError("max_pause_fraction must be in [0, 1)")
        if self.retransmit_latency < 0:
            raise ValueError("retransmit_latency must be >= 0")

    def pause_fraction(self, oversubscription: float) -> float:
        """Fraction of time a flow is XOFF-paused at the given load ratio."""
        if oversubscription <= 1.0:
            return 0.0
        return min(self.max_pause_fraction, self.pause_per_excess * (oversubscription - 1.0))


DEFAULT_PFC_PENALTY = PfcPenaltyModel()


@dataclass(frozen=True)
class RoutedStepCost:
    """Routing outcome of one ring step (all pair transfers concurrent).

    ``utilization`` and ``oversubscription`` are derived from the
    *effective* rates actually charged to the transfers — after
    congestion-control efficiency and PFC pause derating — so the
    ``network``-lane gauges report realized link load, not the
    pre-derate fair-share allocation.
    """

    duration: float  # slowest flow's completion time
    n_flows: int  # inter-node flows (same-host pairs are skipped)
    max_link_load: int  # flows sharing the most-loaded link
    utilization: float  # worst link's effective-rate utilization
    oversubscription: float  # worst effective offered-load / capacity (0 if unbounded demand)
    paused_flows: int  # flows paying a PFC penalty
    slowest_flow: int  # index of the flow setting the duration


@dataclass(frozen=True)
class FabricCollectiveCost:
    """A fabric-priced collective with its routing diagnostics."""

    kind: str
    size: float
    n_ranks: int
    n_steps: int
    step: RoutedStepCost  # identical steps: one routing outcome
    time: float


def ring_steps(kind: str, n: int) -> int:
    """Steps of an ``n``-rank ring collective: n-1, or 2(n-1) for all-reduce."""
    if kind in ("all_gather", "reduce_scatter"):
        return n - 1
    if kind == "all_reduce":
        return 2 * (n - 1)
    raise ValueError(
        "ring collectives are all_gather/reduce_scatter/all_reduce, "
        f"not {kind!r}"
    )


def ring_flows(fabric: ClosFabric, nodes: Sequence[int], demand: float) -> List[Flow]:
    """The routed flows of one step of the ring over ``nodes``.

    Ring position i sends to position i+1 on rail 0 with ECMP flow id i,
    each flow offering ``demand`` bytes/s.  Same-host pairs move over
    NVLink, not the fabric, and get no flow.
    """
    n = len(nodes)
    flows: List[Flow] = []
    for i, src in enumerate(nodes):
        dst = nodes[(i + 1) % n]
        if src != dst:
            flows.append(Flow(i, fabric.path(src, dst, rail=0, flow_id=i), demand))
    return flows


def routed_step_cost(
    flows: Sequence[Flow],
    segment_bytes: float,
    software_latency: float,
    cc_efficiency: float,
    penalty: Optional[PfcPenaltyModel],
) -> RoutedStepCost:
    """Completion time of one ring step whose pair transfers are ``flows``.

    The flows share links max-min fairly (one
    :func:`~repro.network.flow.max_min_fair_rates` solve, which also
    stores each flow's rate).  A flow's ``demand`` caps it at its NIC
    line rate; an unbounded (infinite) demand offers no load, so PFC
    penalties never apply to it.  The step ends when the slowest flow
    finishes.
    """
    if segment_bytes < 0:
        raise ValueError("segment_bytes must be non-negative")
    if not 0 < cc_efficiency <= 1:
        raise ValueError("cc_efficiency must be in (0, 1]")
    if not flows:
        return RoutedStepCost(software_latency, 0, 0, 0.0, 0.0, 0, 0)
    max_min_fair_rates(flows)

    load: Dict[Link, int] = {}
    for flow in flows:
        for link in flow.path:
            load[link] = load.get(link, 0) + 1
    max_link_load = max(load.values())

    # PFC pauses trigger on the *offered* wire load (what the NICs try
    # to push); the realized per-flow goodput then derates by both the
    # congestion-control efficiency and the pause fraction.
    duration, slowest, paused = 0.0, 0, 0
    effective: Dict[Link, float] = {}
    offered: Dict[Link, float] = {}
    for flow in flows:
        capped = math.isfinite(flow.demand)
        ratio = 0.0
        if capped:
            ratio = max(load[l] * flow.demand / l.bandwidth for l in flow.path)
        pause = penalty.pause_fraction(ratio) if penalty is not None else 0.0
        if pause > 0.0:
            paused += 1
        rate = flow.rate * cc_efficiency * (1.0 - pause)
        for link in flow.path:
            effective[link] = effective.get(link, 0.0) + rate
            if capped:
                offered[link] = (
                    offered.get(link, 0.0) + flow.demand * cc_efficiency * (1.0 - pause)
                )
        latency = sum(l.latency for l in flow.path) + software_latency
        if pause > 0.0:
            latency += penalty.retransmit_latency
        t = (segment_bytes / rate if segment_bytes > 0 else 0.0) + latency
        if t > duration:
            duration, slowest = t, flow.flow_id
    utilization = max(min(1.0, effective[l] / l.bandwidth) for l in load)
    oversubscription = max(
        (value / link.bandwidth for link, value in offered.items()), default=0.0
    )
    return RoutedStepCost(
        duration=duration,
        n_flows=len(flows),
        max_link_load=max_link_load,
        utilization=utilization,
        oversubscription=oversubscription,
        paused_flows=paused,
        slowest_flow=slowest,
    )


@dataclass
class FabricCostModel:
    """Prices ring collectives by routing their flows over a fabric.

    Each ring step of an n-node collective is n neighbour-pair flows
    (same-host pairs skipped, see :func:`ring_flows`), each demanding
    the NIC line rate and shared max-min across the CLOS links, with
    :data:`RING_SOFTWARE_LATENCY` per step and
    :data:`DEFAULT_PFC_PENALTY`; steps are identical, so one routing
    prices the whole collective.
    """

    fabric: ClosFabric
    cc_efficiency: float = DEFAULT_CC_EFFICIENCY
    nic_rate: Optional[float] = None  # per-flow demand; fabric's NIC rate if None

    def __post_init__(self) -> None:
        if not 0 < self.cc_efficiency <= 1:
            raise ValueError("cc_efficiency must be in (0, 1]")
        if self.nic_rate is None:
            self.nic_rate = self.fabric.nic_rate

    def _price(self, flows: Sequence[Flow], segment_bytes: float) -> RoutedStepCost:
        return routed_step_cost(
            flows, segment_bytes, RING_SOFTWARE_LATENCY, self.cc_efficiency,
            DEFAULT_PFC_PENALTY,
        )

    def collective_cost(
        self, kind: str, size: float, nodes: Sequence[int], hub=None
    ) -> FabricCollectiveCost:
        """Price one ring collective over ``nodes`` (fabric node per rank).

        With a :class:`~repro.observability.TelemetryHub` as ``hub`` the
        collective lands as a routed-flow span on the ``collectives``
        lane and its bottleneck-link utilization as gauges on the
        ``network`` lane.
        """
        if size < 0:
            raise ValueError("size must be non-negative")
        nodes = tuple(nodes)
        n = len(nodes)
        if n < 1:
            raise ValueError("need at least one node")
        n_steps = ring_steps(kind, n)
        if n == 1 or size == 0:
            cost = FabricCollectiveCost(
                kind, float(size), n, 0, RoutedStepCost(0.0, 0, 0, 0.0, 0.0, 0, 0), 0.0
            )
        else:
            step = self._price(ring_flows(self.fabric, nodes, self.nic_rate), size / n)
            cost = FabricCollectiveCost(
                kind, float(size), n, n_steps, step, n_steps * step.duration
            )
        self._emit(hub, cost)
        return cost

    def p2p_time(self, size: float, src_node: int, dst_node: int, flow_id: int = 0) -> float:
        """One routed send/recv between two nodes (pipeline activations)."""
        if size < 0:
            raise ValueError("size must be non-negative")
        if src_node == dst_node:
            return 0.0
        path = self.fabric.path(src_node, dst_node, rail=0, flow_id=flow_id)
        return self._price([Flow(flow_id, path, self.nic_rate)], size).duration

    def _emit(self, hub, cost: FabricCollectiveCost) -> None:
        if hub is None:
            return
        step = cost.step
        hub.span(
            "collectives",
            f"fabric:{cost.kind}",
            0,
            0.0,
            cost.time,
            stream="fabric",
            bytes=cost.size,
            n_ranks=cost.n_ranks,
            steps=cost.n_steps,
            n_flows=step.n_flows,
            max_link_load=step.max_link_load,
            paused_flows=step.paused_flows,
        )
        hub.count("collectives", "fabric_priced", 1, kind=cost.kind)
        # The ring rides rail 0, whose index is the gauge's rank/tid.
        hub.sample(
            "network", "fabric_link_utilization", t=0.0, value=step.utilization, rank=0
        )
        hub.sample(
            "network", "fabric_max_link_load", t=0.0, value=float(step.max_link_load),
            rank=0,
        )


def fabric_collective_cost(
    kind: str,
    size: float,
    nodes: Tuple[int, ...],
    fabric: ClosFabric,
    cc_efficiency: float = DEFAULT_CC_EFFICIENCY,
    nic_rate: Optional[float] = None,
    hub=None,
) -> FabricCollectiveCost:
    """Memoized fabric pricing — the ``backend="fabric"`` entry point.

    Keyed by every pricing parameter plus
    :meth:`~repro.network.topology.ClosFabric.fingerprint`, so two
    identically-configured healthy fabrics share entries while a fabric
    degraded through
    :meth:`~repro.network.topology.ClosFabric.set_link_state` never
    reuses them.  ``hub`` is not part of the key, and telemetry is
    emitted only when the price is computed fresh — a memo hit is not a
    new routed collective.
    """
    nodes = tuple(nodes)
    key = (kind, float(size), nodes, cc_efficiency, nic_rate, fabric.fingerprint())
    return get_cache("fabric_collective_cost").lookup(
        key,
        lambda: FabricCostModel(
            fabric, cc_efficiency=cc_efficiency, nic_rate=nic_rate
        ).collective_cost(kind, size, nodes, hub=hub),
    )
