"""The per-pair ring scan: the oracle for analytic ring pricing.

:meth:`repro.collectives.groups.GroupCommModel.ring_bandwidth` prices a
ring from its lowest and highest rank alone.  This walks every
neighbour pair around the ring and takes the slowest, pricing each pair
from the node and pod its two ranks sit on.  The property tests in
``tests/collectives/test_ring_pricing.py`` hold the two equal bit for
bit.
"""

from __future__ import annotations

from typing import Sequence

from repro.collectives.groups import GroupCommModel
from repro.network.ecmp import conflict_factor


def pair_bandwidth_reference(model: GroupCommModel, rank_a: int, rank_b: int) -> float:
    """Effective bytes/s between two ranks' NICs."""
    gpus_per_node = model.node_spec.gpus_per_node
    node_a, node_b = rank_a // gpus_per_node, rank_b // gpus_per_node
    if node_a == node_b:
        return model.node_spec.gpu_spec.nvlink_bandwidth
    rate = model.node_spec.nic_spec.line_rate * model.cc_efficiency
    if not model.fabric.same_tor(node_a, node_b):
        rate *= conflict_factor(64, 32, 100)
    return rate


def ring_bandwidth_reference(model: GroupCommModel, ranks: Sequence[int]) -> float:
    """Slowest neighbour-pair bandwidth around the ring."""
    if len(ranks) < 2:
        return float("inf")
    rate = float("inf")
    for i, rank in enumerate(ranks):
        nxt = ranks[(i + 1) % len(ranks)]
        rate = min(rate, pair_bandwidth_reference(model, rank, nxt))
    return rate
