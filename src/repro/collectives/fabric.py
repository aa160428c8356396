"""Flow-level collective cost backend (§3.6): the one routed ring step.

The alpha-beta models in :mod:`repro.collectives.primitives` price a
collective from a single bandwidth/latency pair, blind to where the
ranks actually sit.  This backend expands a ring collective into its
per-step flow set, routes every neighbour-pair flow over the
:class:`~repro.network.topology.ClosFabric` with deterministic ECMP
hashing, computes the step completion time under max-min fair link
sharing, and applies a PFC pause/retransmit penalty to flows whose path
crosses an oversubscribed uplink — so same-ToR placement, port
splitting and ECMP hash conflicts show up in collective *prices*, not
just in standalone network studies.

A ring step is routed and priced as integer arrays.  :func:`ring_route`
is the one ring router: a same-pod pair is its two NIC link ids by
arithmetic (no ``Flow``, ``Link`` or device name), and every other pair
goes through :meth:`~repro.network.topology.ClosFabric.path_ids`, which
hashes the same device names as :meth:`ClosFabric.path`.
:func:`price_route` water-fills the step on its edge arrays and prices
it into a bytes-independent :class:`RoutedStep`, whose
:meth:`RoutedStep.cost` prices a segment size; :func:`ring_steps`
counts the steps of a collective.  :class:`FabricCostModel` and the
event runtime (:mod:`repro.collectives.runtime`) share both, and only
differ in the transport they price.  :func:`route_step` prices a list of
routed :class:`~repro.network.flow.Flow` objects (the pipeline hop)
through the same pricer.  :class:`FabricCostModel` routes each distinct
ring once per fabric state (the ``fabric_ring`` memo), so the
collectives of every size over one ring share its routing.

On an uncongested single-pod placement the fabric price degenerates
exactly to the alpha-beta model: every neighbour path is
nic -> ToR -> nic (two :data:`~repro.network.topology.LINK_LATENCY`
links) and :data:`RING_SOFTWARE_LATENCY` tops the per-step latency up
to :data:`~repro.collectives.primitives.INTER_NODE_LATENCY`, while each
NIC-bound flow owns its links and runs at
``nic_rate * cc_efficiency`` — the same bandwidth the analytic model
charges for a same-pod ring.  Cross-pod rings pick up the extra switch
hops, ECMP link sharing, and PFC penalties on top, which is why that
uncongested price is a floor on every routed one
(:meth:`FabricCostModel.collective_floor`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from ..exec.memo import get_cache
from ..network.flow import Flow, _index_links, _waterfill, max_min_fair_rates
from ..network.topology import LINK_LATENCY, ClosFabric
from .primitives import DEFAULT_CC_EFFICIENCY

__all__ = [
    "DEFAULT_PFC_PENALTY",
    "FabricCollectiveCost",
    "FabricCostModel",
    "PfcPenaltyModel",
    "RING_SOFTWARE_LATENCY",
    "RoutedStep",
    "RoutedStepCost",
    "fabric_collective_cost",
    "price_route",
    "ring_route",
    "ring_steps",
    "route_step",
]

# Software/launch overhead added to every ring step.  Chosen so that a
# clean intra-pod path (two LINK_LATENCY NIC<->ToR links) lands exactly
# on the analytic model's INTER_NODE_LATENCY of 12 us — which is what
# makes the fabric backend degenerate to the alpha-beta cost on a
# single-ToR group.
RING_SOFTWARE_LATENCY = 10e-6
# The least latency a routed flow pays: a same-pod path of two links.
MIN_ROUTED_LATENCY = RING_SOFTWARE_LATENCY + 2 * LINK_LATENCY
# A fabric path's latency by its link count (2 or 6): the builtin sum of
# its links' latencies, as a Flow's path is summed.
_PATH_LATENCY = np.array([sum((LINK_LATENCY,) * links) for links in range(7)])


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

    ``utilization`` is derived from the *effective* rates actually
    charged to the transfers — after congestion-control efficiency and
    PFC pause derating — so the ``network``-lane gauges report realized
    link load, not the pre-derate fair-share allocation.
    """

    duration: float  # slowest flow's completion time
    n_flows: int  # inter-node flows (same-host pairs are skipped)
    max_link_load: int  # flows sharing the most-loaded link
    utilization: float  # worst link's effective-rate utilization
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


@dataclass(frozen=True)
class RoutedStep:
    """The bytes-independent outcome of routing one ring step.

    Everything the pricer derives from the water-fill — link load, PFC
    pauses, each flow's effective rate and path latency — so
    :meth:`cost` prices any segment size without routing again.
    """

    max_link_load: int  # flows sharing the most-loaded link
    utilization: float  # worst link's effective-rate utilization
    paused_flows: int  # flows paying a PFC penalty
    software_latency: float  # a flowless step's whole price
    flows: Tuple[Tuple[int, float, float], ...]  # (flow id, effective rate, latency)
    # ``flows`` as (rates, latencies) arrays, for :meth:`cost`.
    _columns: Tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _, rates, latencies = zip(*self.flows) if self.flows else ((), (), ())
        object.__setattr__(self, "_columns", (np.array(rates, float), np.array(latencies, float)))

    def cost(self, segment_bytes: float) -> RoutedStepCost:
        """This step with every flow moving ``segment_bytes``: it ends
        when the slowest flow finishes, the first one in ``flows`` order
        on a tie.  Each flow's time is ``segment_bytes / rate + latency``
        (just its latency at zero bytes), in one array expression."""
        if segment_bytes < 0:
            raise ValueError("segment_bytes must be non-negative")
        if not self.flows:
            return RoutedStepCost(self.software_latency, 0, 0, 0.0, 0, 0)
        rates, latencies = self._columns
        times = segment_bytes / rates + latencies if segment_bytes > 0 else latencies
        first = int(times.argmax())
        duration, slowest = float(times[first]), self.flows[first][0]
        if not duration > 0.0:  # no flow outlasts an empty step
            duration, slowest = 0.0, 0
        return RoutedStepCost(
            duration=duration,
            n_flows=len(self.flows),
            max_link_load=self.max_link_load,
            utilization=self.utilization,
            paused_flows=self.paused_flows,
            slowest_flow=slowest,
        )


@dataclass(frozen=True, eq=False)
class RingRoute:
    """One step of a ring routed as fabric link ids.

    Edges are flow-major in ring-position order, each flow's links in
    path order — the order the flow solver walks ``Flow`` paths.
    """

    flow_ids: np.ndarray  # ring position of each inter-node pair
    hops: np.ndarray  # links on each flow's path (2 or 6)
    edge_flow: np.ndarray  # flow index of each edge
    edge_link: np.ndarray  # fabric link id of each edge

    def check_up(self, fabric: ClosFabric) -> None:
        """Raise ``RuntimeError`` naming the first flow routed over a down
        link, as the flow solver does for a ``Flow``."""
        for edge, link in fabric.built_links(self.edge_link.tolist()):
            if not link.up:
                flow = self.flow_ids[self.edge_flow[edge]]
                raise RuntimeError(f"flow {flow} routed over down link {link.name}")


def ring_route(fabric: ClosFabric, nodes: Sequence[int]) -> RingRoute:
    """Route one step of the ring over ``nodes`` as link ids.

    Ring position i sends to position i+1 on rail 0 with ECMP flow id i;
    same-host pairs move over NVLink, not the fabric, and get no flow.
    On a fabric with no link down, a same-pod pair is
    ``(nic_up(src), nic_down(dst))`` for the whole ring at once.  Every
    other pair (cross-pod, naming a node off the fabric, or any pair of
    a degraded fabric) is routed in ring order by
    :meth:`~repro.network.topology.ClosFabric.path_ids`, which raises
    where :meth:`~repro.network.topology.ClosFabric.path` would.
    """
    src = np.asarray(nodes, dtype=np.intp)
    dst = np.roll(src, -1)
    flow_ids = np.flatnonzero(src != dst)
    src, dst = src[flow_ids], dst[flow_ids]
    npp = fabric.nodes_per_pod
    by_path = (
        (src // npp != dst // npp)
        | (np.minimum(src, dst) < 0)
        | (np.maximum(src, dst) >= fabric.n_nodes)
    )
    if fabric.degraded():
        by_path[:] = True
    slow = np.flatnonzero(by_path)
    routes = [
        fabric.path_ids(s, d, 0, f)
        for s, d, f in zip(src[slow].tolist(), dst[slow].tolist(), flow_ids[slow].tolist())
    ]
    hops = np.full(len(flow_ids), 2, dtype=np.intp)
    hops[slow] = [len(route) for route in routes]
    first = np.cumsum(hops) - hops
    edge_link = np.empty(int(hops.sum()), dtype=np.intp)
    fast = ~by_path
    edge_link[first[fast]] = fabric.nic_up(src[fast], 0)
    edge_link[first[fast] + 1] = fabric.nic_down(dst[fast], 0)
    for start, route in zip(first[slow].tolist(), routes):
        edge_link[start:start + len(route)] = route
    edge_flow = np.repeat(np.arange(len(flow_ids)), hops)
    return RingRoute(flow_ids, hops, edge_flow, edge_link)


def price_route(
    fabric: ClosFabric,
    route: RingRoute,
    demand: float,
    software_latency: float,
    cc_efficiency: float,
    penalty: Optional[PfcPenaltyModel],
) -> RoutedStep:
    """Water-fill and price one routed ring step, every flow offering ``demand``.

    Raises before pricing, as the flow solver does, if a flow crosses a
    built link that is down (:meth:`RingRoute.check_up`).
    """
    if not 0 < cc_efficiency <= 1:
        raise ValueError("cc_efficiency must be in (0, 1]")
    n_flows = len(route.flow_ids)
    if not n_flows:
        return RoutedStep(0, 0.0, 0, software_latency, ())
    route.check_up(fabric)
    # Links numbered densely in id order: only min and bincount read the
    # numbering, so it leaves every float as the flow solver's.
    links, edge_link = np.unique(route.edge_link, return_inverse=True)
    bandwidth = fabric.link_bandwidths(links)
    demands = np.full(n_flows, float(demand))
    rates = _waterfill(demands, route.edge_flow, edge_link, bandwidth)
    return _price(
        route.flow_ids, rates, demands, route.edge_flow, edge_link, bandwidth,
        _PATH_LATENCY[route.hops], software_latency, cc_efficiency, penalty,
    )


def route_step(
    flows: Sequence[Flow],
    software_latency: float,
    cc_efficiency: float,
    penalty: Optional[PfcPenaltyModel],
) -> RoutedStep:
    """Water-fill one step whose pair transfers are the routed ``flows``.

    The ``Flow`` adapter of :func:`price_route` (the pipeline hop and
    tests use it): the rates come from one
    :func:`~repro.network.flow.max_min_fair_rates` solve, which also
    stores each flow's rate, and the same pricer then derives the step.
    A flow's ``demand`` caps it at its NIC line rate; an unbounded
    (infinite) demand offers no load, so PFC penalties never apply to it.
    """
    if not 0 < cc_efficiency <= 1:
        raise ValueError("cc_efficiency must be in (0, 1]")
    if not flows:
        return RoutedStep(0, 0.0, 0, software_latency, ())
    max_min_fair_rates(flows)
    _, edge_flow, edge_link, bandwidth = _index_links(flows)
    return _price(
        np.array([f.flow_id for f in flows]),
        np.array([f.rate for f in flows]),
        np.array([f.demand for f in flows]),
        edge_flow, edge_link, bandwidth,
        np.array([sum(link.latency for link in f.path) for f in flows]),
        software_latency, cc_efficiency, penalty,
    )


def _price(
    flow_ids: np.ndarray,
    rates: np.ndarray,
    demand: np.ndarray,
    edge_flow: np.ndarray,
    edge_link: np.ndarray,
    bandwidth: np.ndarray,
    path_latency: np.ndarray,
    software_latency: float,
    cc_efficiency: float,
    penalty: Optional[PfcPenaltyModel],
) -> RoutedStep:
    """A water-filled step's :class:`RoutedStep`, from its edge arrays.

    PFC pauses trigger on the *offered* wire load (what the NICs try to
    push); the realized per-flow goodput then derates by both the
    congestion-control efficiency and the pause fraction.  The per-link
    effective-rate sum uses unbuffered ``np.add.at`` over the flow-major
    edges, so each float is added in the order a per-flow loop adds it.
    """
    n_links = len(bandwidth)
    load = np.bincount(edge_link, minlength=n_links)
    # A capped (finite-demand) flow's worst link ratio; all ratios are positive.
    ratio = np.zeros(len(flow_ids))
    np.maximum.at(ratio, edge_flow, load[edge_link] * demand[edge_flow] / bandwidth[edge_link])
    ratio[~np.isfinite(demand)] = 0.0
    pause = np.zeros(len(flow_ids))
    if penalty is not None:
        for i in np.flatnonzero(ratio > 1.0).tolist():  # no pause at or below 1.0
            pause[i] = penalty.pause_fraction(float(ratio[i]))
    paused = pause > 0.0
    rate = rates * cc_efficiency * (1.0 - pause)
    effective = np.zeros(n_links)
    np.add.at(effective, edge_link, rate[edge_flow])
    latency = path_latency + software_latency
    if penalty is not None:
        latency[paused] += penalty.retransmit_latency
    return RoutedStep(
        max_link_load=int(load.max()),
        utilization=float(np.minimum(1.0, effective / bandwidth).max()),
        paused_flows=int(paused.sum()),
        software_latency=software_latency,
        flows=tuple(zip(flow_ids.tolist(), rate.tolist(), latency.tolist())),
    )


@dataclass
class FabricCostModel:
    """Prices ring collectives by routing their flows over a fabric.

    Each ring step of an n-node collective is n neighbour-pair flows
    (same-host pairs skipped, see :func:`ring_route`), each demanding
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
        if not self.nic_rate > 0:
            raise ValueError(f"nic_rate must be positive, got {self.nic_rate}")

    def route(self, nodes: Tuple[int, ...]) -> RoutedStep:
        """One step of the ring over ``nodes``, routed once per fabric state.

        Memoized in the ``fabric_ring`` cache, keyed like
        :func:`fabric_collective_cost` by the fabric's fingerprint, so the
        collectives of every kind and size over one ring share one
        routing and water-fill.
        """
        key = (nodes, self.cc_efficiency, self.nic_rate, self.fabric.fingerprint())
        return get_cache("fabric_ring").lookup(
            key,
            lambda: price_route(
                self.fabric,
                ring_route(self.fabric, nodes),
                self.nic_rate,
                RING_SOFTWARE_LATENCY,
                self.cc_efficiency,
                DEFAULT_PFC_PENALTY,
            ),
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
                kind, float(size), n, 0, RoutedStepCost(0.0, 0, 0, 0.0, 0, 0), 0.0
            )
        else:
            step = self.route(nodes).cost(size / n)
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
        step = route_step(
            [Flow(flow_id, path, self.nic_rate)], RING_SOFTWARE_LATENCY,
            self.cc_efficiency, DEFAULT_PFC_PENALTY,
        )
        return step.cost(size).duration

    # -- floors: priced without routing ---------------------------------------

    def _floor_step(self, segment_bytes: float) -> float:
        """The least a routed step moving ``segment_bytes`` per flow lasts.

        A flow's rate is at most its demand (the water-fill never
        exceeds it), times ``cc_efficiency``, times ``1.0 - pause`` <= 1;
        its latency is at least :data:`MIN_ROUTED_LATENCY`.  Written as
        :meth:`RoutedStep.cost` writes a flow's time (``rate * 1.0`` is
        exact), so rounding keeps the order: an uncongested same-pod step
        equals this floor bit for bit and no routed step is below it.
        """
        rate = self.nic_rate * self.cc_efficiency
        return (segment_bytes / rate if segment_bytes > 0 else 0.0) + MIN_ROUTED_LATENCY

    def collective_floor(self, kind: str, size: float, n: int) -> float:
        """A floor on :meth:`collective_cost` for any ``n``-rank ring with
        at least two distinct nodes, without routing it.

        A ring on one node routes no flow and pays only the software
        latency per step, so it has no such floor.
        """
        if size < 0:
            raise ValueError("size must be non-negative")
        n_steps = ring_steps(kind, n)
        if n == 1 or size == 0:
            return 0.0
        return n_steps * self._floor_step(size / n)

    def p2p_floor(self, size: float) -> float:
        """A floor on :meth:`p2p_time` between two distinct nodes."""
        if size < 0:
            raise ValueError("size must be non-negative")
        return self._floor_step(size)

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
    ranks: Sequence[int],
    fabric: ClosFabric,
    cc_efficiency: float = DEFAULT_CC_EFFICIENCY,
    nic_rate: Optional[float] = None,
    hub=None,
    gpus_per_node: int = 1,
) -> FabricCollectiveCost:
    """Memoized fabric pricing — the ``backend="fabric"`` entry point.

    Prices the ring over the fabric nodes of ``ranks``, packed
    ``gpus_per_node`` to a node (with the default 1, ``ranks`` are the
    nodes).  Keyed by every pricing parameter plus
    :meth:`~repro.network.topology.ClosFabric.fingerprint`, so two
    identically-configured healthy fabrics share entries while a fabric
    degraded through
    :meth:`~repro.network.topology.ClosFabric.set_link_state` never
    reuses them.  A ``range`` of ranks (every
    :meth:`~repro.parallel.plan.ParallelPlan.dp_group`) hashes and
    compares in O(1), by its start, step and length, so a hit does no
    per-rank work; the node tuple is built only on a miss.  ``hub`` is
    not part of the key, and telemetry is emitted only when the price is
    computed fresh — a memo hit is not a new routed collective.
    """
    if gpus_per_node < 1:
        raise ValueError(f"gpus_per_node must be at least 1, got {gpus_per_node}")
    ranks = ranks if isinstance(ranks, range) else tuple(ranks)
    key = (kind, float(size), ranks, gpus_per_node, cc_efficiency, nic_rate, fabric.fingerprint())

    def price() -> FabricCollectiveCost:
        index = (
            np.arange(ranks.start, ranks.stop, ranks.step)
            if isinstance(ranks, range)
            else np.array(ranks, dtype=np.intp)
        )
        nodes = tuple((index // gpus_per_node).tolist())
        model = FabricCostModel(fabric, cc_efficiency=cc_efficiency, nic_rate=nic_rate)
        return model.collective_cost(kind, size, nodes, hub=hub)

    return get_cache("fabric_collective_cost").lookup(key, price)
