"""Cluster: the pool of GPU servers available to a training job.

The cluster owns nodes, a spare pool (the paper's Kubernetes keeps healthy
replacements on standby), and fault bookkeeping.  Placement onto the
network fabric is handled by :mod:`repro.network.topology`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .node import Node, NodeSpec, build_nodes


class UnknownNode(LookupError):
    """The node id does not name an *active* cluster node.

    Raised for ids that were never part of the cluster and for nodes
    already evicted — either way the caller holds a stale or bogus
    reference, which is a programming error, not a capacity issue.
    """


class NoSpareAvailable(LookupError):
    """The spare pool is empty — replacement is a capacity decision.

    Distinct from :class:`UnknownNode` so callers can arbitrate / retry /
    shrink on exhaustion while still letting genuine bugs propagate.
    """


@dataclass
class Cluster:
    """A set of active nodes plus a standby pool for replacements."""

    nodes: List[Node]
    spares: List[Node] = field(default_factory=list)
    _by_id: Dict[int, Node] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self._by_id = {n.node_id: n for n in self.nodes + self.spares}
        if len(self._by_id) != len(self.nodes) + len(self.spares):
            raise ValueError("duplicate node ids in cluster")

    @classmethod
    def build(
        cls,
        n_nodes: int,
        n_spares: int = 0,
        spec: Optional[NodeSpec] = None,
    ) -> "Cluster":
        spec = spec or NodeSpec()
        return cls(
            nodes=build_nodes(n_nodes, spec),
            spares=build_nodes(n_spares, spec) if n_spares else [],
        )

    @property
    def spare_count(self) -> int:
        """Healthy standby nodes still available for replacement."""
        return len(self.spares)

    def evict(self, node_id: int) -> Node:
        """Remove a faulty node from the active set (Kubernetes eviction).

        Returns the replacement drawn from the spare pool.  Raises
        :class:`UnknownNode` for an id that is not an active node and
        :class:`NoSpareAvailable` on pool exhaustion — the latter is the
        signal to arbitrate, retry, or shrink rather than a bug.
        """
        target = self._active(node_id)
        if not self.spares:
            raise NoSpareAvailable("no spare nodes available for replacement")
        replacement = self.spares.pop(0)
        position = self.nodes.index(target)
        self.nodes[position] = replacement
        target.evicted = True
        del self._by_id[node_id]
        return replacement

    def _active(self, node_id: int) -> Node:
        target = self._by_id.get(node_id)
        if target is None or target not in self.nodes:
            raise UnknownNode(f"node {node_id} is not active")
        return target
