"""Fabric-aware collective timing for 3D-parallel communication groups.

TP collectives run on NVLink and are costed in :mod:`repro.model.blocks`.
This module prices the *inter-node* traffic: data-parallel ring
collectives and pipeline-parallel point-to-point transfers, taking the
actual CLOS paths into account:

* DP rings are rail-aligned — each GPU rides its own NIC — so the ring's
  bandwidth is the slowest neighbour-pair link, derated by congestion-
  control efficiency and (for cross-pod hops) ECMP conflict losses.
* PP neighbours sit ``dp`` nodes apart (dp-before-pp layout), usually in
  the same pod, sometimes across pods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..hardware.node import NodeSpec
from ..network.ecmp import conflict_factor
from ..network.topology import ClosFabric, shared_fabric
from ..parallel.plan import ParallelPlan
from .fabric import FabricCostModel, fabric_collective_cost
from .primitives import (
    DEFAULT_CC_EFFICIENCY,
    INTER_NODE_LATENCY,
    point_to_point,
    ring_all_gather,
    ring_all_reduce,
    ring_reduce_scatter,
    validate_backend,
)


@dataclass
class GroupCommModel:
    """Prices collectives for one (plan, fabric) deployment.

    ``backend`` selects the pricing model (see
    :data:`~repro.collectives.primitives.COST_BACKENDS`): ``"analytic"``
    uses the alpha-beta forms with topology-derived bandwidth derating;
    ``"fabric"`` routes every inter-host collective's per-step flows over
    the actual CLOS links (:mod:`repro.collectives.fabric`).  The
    ``*_floor`` methods bracket the prices from below without routing,
    for plan search's ladder.
    """

    plan: ParallelPlan
    fabric: ClosFabric
    node_spec: Optional[NodeSpec] = None
    cc_efficiency: float = DEFAULT_CC_EFFICIENCY
    inter_node_latency: float = INTER_NODE_LATENCY
    backend: str = "analytic"

    def __post_init__(self) -> None:
        if self.node_spec is None:
            self.node_spec = NodeSpec()
        if not 0 < self.cc_efficiency <= 1:
            raise ValueError("cc_efficiency must be in (0, 1]")
        if self.inter_node_latency < 0:
            raise ValueError("inter_node_latency must be non-negative")
        validate_backend(self.backend)
        self._nic_rate = self.node_spec.nic_spec.line_rate
        # Ring pricing relies on NVLink >= NIC*cc >= NIC*cc*conflict.
        if self.node_spec.gpu_spec.nvlink_bandwidth < self._nic_rate:
            raise ValueError("NVLink bandwidth must be >= the NIC line rate")
        self._fabric_model = None
        if self.backend == "fabric":
            self._fabric_model = FabricCostModel(
                self.fabric, cc_efficiency=self.cc_efficiency, nic_rate=self._nic_rate
            )

    # -- helpers -------------------------------------------------------------

    def _node_of_rank(self, rank: int) -> int:
        """Fabric node index hosting a rank (packed 8 ranks/node)."""
        return rank // self.node_spec.gpus_per_node

    def _pair_bandwidth(self, rank_a: int, rank_b: int) -> float:
        """Effective bytes/s between two ranks' NICs."""
        node_a, node_b = self._node_of_rank(rank_a), self._node_of_rank(rank_b)
        if node_a == node_b:
            # Same host: NVLink/PCIe shortcut, far faster than the NIC.
            return self.node_spec.gpu_spec.nvlink_bandwidth
        rate = self._nic_rate * self.cc_efficiency
        if not self.fabric.same_tor(node_a, node_b):
            # A ToR's 64 rails hash onto its 32 split-port uplinks (§3.6).
            rate *= conflict_factor(64, 32, 100)
        return rate

    def _one_host(self, ranks: Sequence[int]) -> bool:
        """Whether every rank sits on one host: as in :meth:`ring_bandwidth`,
        exactly when the lowest and highest rank do."""
        if isinstance(ranks, range):
            return self._node_of_rank(ranks[0]) == self._node_of_rank(ranks[-1])
        return self._node_of_rank(min(ranks)) == self._node_of_rank(max(ranks))

    def ring_bandwidth(self, ranks: Sequence[int]) -> float:
        """Slowest neighbour-pair bandwidth around the ring, in O(1) for a range.

        Nodes and pods hold contiguous rank blocks, so a ring's ranks
        share one node (or pod) exactly when its lowest and highest rank
        do, and a ring that spans two nodes (pods) has a neighbour pair
        crossing between them.  With NVLink >= NIC*cc >= NIC*cc*conflict
        the slowest pair is therefore the pair (lowest, highest).  A
        ``range`` — every :meth:`~repro.parallel.plan.ParallelPlan.dp_group`
        — has its extremes at its ends.
        """
        if len(ranks) < 2:
            return float("inf")
        if isinstance(ranks, range):
            return self._pair_bandwidth(ranks[0], ranks[-1])
        return self._pair_bandwidth(min(ranks), max(ranks))

    # -- DP collectives --------------------------------------------------------

    def dp_collective_time(
        self, kind: str, size: float, ranks: Optional[Sequence[int]] = None
    ) -> float:
        """Time of one DP collective of ``size`` bytes (full tensor).

        On the fabric backend a ring whose ranks all share one host moves
        over NVLink, not the fabric, so it is priced as the analytic model
        prices it; every other ring is routed.
        """
        if kind not in ("all_gather", "reduce_scatter", "all_reduce"):
            raise ValueError(f"unknown DP collective {kind!r}")
        ranks = ranks if ranks is not None else self.plan.dp_group(0)
        n = len(ranks)
        if n == 1:
            return 0.0
        if self.backend == "fabric" and not self._one_host(ranks):
            return fabric_collective_cost(
                kind,
                size,
                ranks,
                self.fabric,
                cc_efficiency=self.cc_efficiency,
                nic_rate=self._nic_rate,
                gpus_per_node=self.node_spec.gpus_per_node,
            ).time
        bandwidth = self.ring_bandwidth(ranks)
        if kind == "all_gather":
            return ring_all_gather(size, n, bandwidth, self.inter_node_latency)
        if kind == "reduce_scatter":
            return ring_reduce_scatter(size, n, bandwidth, self.inter_node_latency)
        return ring_all_reduce(size, n, bandwidth, self.inter_node_latency)

    def dp_collective_floor(
        self, kind: str, size: float, ranks: Optional[Sequence[int]] = None
    ) -> float:
        """A floor on :meth:`dp_collective_time`, priced without routing.

        The analytic price is its own floor.  On the fabric backend a
        routed ring is floored by
        :meth:`~repro.collectives.fabric.FabricCostModel.collective_floor`
        (alpha-beta at NIC x cc, no ECMP conflict derate, the least
        routed-step latency); a one-host ring keeps its exact price.
        """
        ranks = ranks if ranks is not None else self.plan.dp_group(0)
        if self._fabric_model is None or self._one_host(ranks):
            return self.dp_collective_time(kind, size, ranks)
        return self._fabric_model.collective_floor(kind, size, len(ranks))

    # -- PP point-to-point -------------------------------------------------------

    def pp_p2p_time(self, size: float, src_rank: int = 0, dst_rank: Optional[int] = None) -> float:
        """Activation/gradient transfer between adjacent pipeline stages."""
        if dst_rank is None:
            dst_rank = self.plan.next_pp_rank(src_rank)
        node_a, node_b = self._node_of_rank(src_rank), self._node_of_rank(dst_rank)
        if self._fabric_model is not None and node_a != node_b:
            return self._fabric_model.p2p_time(size, node_a, node_b, flow_id=src_rank)
        bandwidth = self._pair_bandwidth(src_rank, dst_rank)
        return point_to_point(size, bandwidth, self.inter_node_latency)

    def pp_p2p_floor(self, size: float, src_rank: int = 0, dst_rank: Optional[int] = None) -> float:
        """A floor on :meth:`pp_p2p_time`, priced without routing (as
        :meth:`dp_collective_floor`: a same-host hop keeps its price)."""
        if dst_rank is None:
            dst_rank = self.plan.next_pp_rank(src_rank)
        node_a, node_b = self._node_of_rank(src_rank), self._node_of_rank(dst_rank)
        if self._fabric_model is not None and node_a != node_b:
            return self._fabric_model.p2p_floor(size)
        return self.pp_p2p_time(size, src_rank, dst_rank)

    # -- diagnostics -------------------------------------------------------------


def build_comm_model(
    plan: ParallelPlan,
    nodes_per_pod: int = 64,
    node_spec: Optional[NodeSpec] = None,
    cc_efficiency: float = DEFAULT_CC_EFFICIENCY,
    inter_node_latency: float = INTER_NODE_LATENCY,
    backend: str = "analytic",
) -> GroupCommModel:
    """Convenience constructor: a comm model on a right-sized fabric.

    Fabrics are interned via :func:`~repro.network.topology.shared_fabric`,
    so plan-search loops that price hundreds of candidates on the same
    cluster shape reuse one fabric (and its warm cost memo).  The
    analytic backend only asks the fabric node-to-pod questions, so it
    never builds the fabric's links; the fabric backend builds the link
    bundles its routes use, on first use.
    """
    node_spec = node_spec or NodeSpec()
    n_nodes = -(-plan.world_size // node_spec.gpus_per_node)
    fabric = shared_fabric(n_nodes, nodes_per_pod)
    return GroupCommModel(
        plan=plan,
        fabric=fabric,
        node_spec=node_spec,
        cc_efficiency=cc_efficiency,
        inter_node_latency=inter_node_latency,
        backend=backend,
    )
