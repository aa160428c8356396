"""Hierarchical (two-level) collective algorithms.

NCCL at scale does not run one flat ring across thousands of GPUs: it
reduces inside each node over NVLink, runs the inter-node phase with one
GPU per node per rail, then broadcasts intra-node.  The latency term
drops from O(world) to O(nodes) and the slow inter-node hop moves only
1/gpus_per_node of the ring steps.

Cost model + a comparison helper that shows where hierarchical beats the
flat ring (large worlds, latency-dominated sizes) — one of the reasons
DP rings at dp=192 are still viable in Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .primitives import ring_all_gather, ring_all_reduce, ring_reduce_scatter


@dataclass(frozen=True)
class HierarchicalCost:
    """Breakdown of a two-level collective."""

    intra_reduce: float
    inter_phase: float
    intra_broadcast: float

    @property
    def total(self) -> float:
        return self.intra_reduce + self.inter_phase + self.intra_broadcast


def hierarchical_all_reduce(
    size: float,
    n_nodes: int,
    gpus_per_node: int,
    intra_bandwidth: float,
    inter_bandwidth: float,
    intra_latency: float = 7e-6,
    inter_latency: float = 12e-6,
) -> HierarchicalCost:
    """Two-level all-reduce: NVLink reduce-scatter, inter-node all-reduce
    of the local shard, NVLink all-gather."""
    if n_nodes < 1 or gpus_per_node < 1:
        raise ValueError("need at least one node and one GPU per node")
    if size < 0:
        raise ValueError("size must be non-negative")
    intra_rs = ring_reduce_scatter(size, gpus_per_node, intra_bandwidth, intra_latency)
    # Each GPU then owns size/gpus_per_node bytes and joins an inter-node
    # ring with its rail peers (all rails run concurrently).
    inter = ring_all_reduce(size / gpus_per_node, n_nodes, inter_bandwidth, inter_latency)
    intra_ag = ring_all_gather(size, gpus_per_node, intra_bandwidth, intra_latency)
    return HierarchicalCost(intra_reduce=intra_rs, inter_phase=inter, intra_broadcast=intra_ag)
