"""Validate the fabric cost backend against the alpha-beta forms (§3.6).

The flow-level backend (:mod:`repro.collectives.fabric`) must agree
with the closed-form alpha-beta models where both are exact — an
uncongested single-ToR ring — and must *diverge* exactly where the
paper says topology matters: cross-pod placements pay uplink latency
and ECMP conflict exposure that a placement-blind analytic model cannot
see.  :func:`validation_report` quantifies both, plus the §3.6 port
splitting benefit, in one deterministic-per-seed report that the CI
smoke job asserts on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..collectives.fabric import fabric_collective_cost
from ..collectives.primitives import (
    DEFAULT_CC_EFFICIENCY,
    INTER_NODE_LATENCY,
    ring_all_gather,
    ring_all_reduce,
    ring_reduce_scatter,
)
from .ecmp import port_split_benefit
from .topology import ClosFabric, shared_fabric


@dataclass(frozen=True)
class PlacementDelta:
    """Analytic vs fabric price of one collective under one placement."""

    label: str  # "same_tor" | "cross_pod"
    kind: str
    size: float
    n_nodes_in_group: int
    analytic_time: float
    fabric_time: float

    @property
    def fabric_ratio(self) -> float:
        """fabric / analytic — 1.0 means the backends agree exactly."""
        if self.analytic_time == 0.0:
            return 1.0 if self.fabric_time == 0.0 else float("inf")
        return self.fabric_time / self.analytic_time


@dataclass(frozen=True)
class ValidationReport:
    """Alpha-beta vs fabric deltas across placements, one seed.

    Deterministic: two reports built from the same arguments compare
    equal field for field (the only randomness, the ECMP conflict
    Monte-Carlo, is seeded).
    """

    n_nodes: int
    nodes_per_pod: int
    group_size: int
    seed: int
    deltas: Tuple[PlacementDelta, ...]
    alpha_beta_max_rel_error: float  # fabric vs analytic on same-ToR rings
    same_tor_speedup: float  # cross-pod fabric time / same-ToR fabric time
    port_split_benefit: float  # §3.6 400G -> 2x200G throughput factor

    def describe(self) -> str:
        lines = [
            f"fabric-vs-analytic validation ({self.n_nodes} nodes, "
            f"{self.nodes_per_pod}/pod, groups of {self.group_size}, "
            f"seed {self.seed})",
            f"  alpha-beta agreement (same-ToR): max rel error "
            f"{self.alpha_beta_max_rel_error:.2e}",
            f"  same-ToR speedup vs cross-pod : {self.same_tor_speedup:.3f}x",
            f"  port-splitting benefit        : {self.port_split_benefit:.3f}x",
        ]
        for d in self.deltas:
            lines.append(
                f"    {d.label:<9s} {d.kind:<14s} {d.size / 1e6:8.1f}MB  "
                f"analytic {d.analytic_time * 1e3:8.3f}ms  "
                f"fabric {d.fabric_time * 1e3:8.3f}ms  "
                f"ratio {d.fabric_ratio:.4f}"
            )
        return "\n".join(lines)


def _cross_pod_nodes(fabric: ClosFabric, group_size: int) -> Tuple[int, ...]:
    """A maximally-spread placement: consecutive ranks alternate pods."""
    nodes = tuple(
        (i % fabric.n_pods) * fabric.nodes_per_pod + i // fabric.n_pods
        for i in range(group_size)
    )
    for node in nodes:
        if node >= fabric.n_nodes:
            raise ValueError(
                f"group of {group_size} does not fit a cross-pod placement "
                f"on {fabric.n_nodes} nodes / {fabric.n_pods} pods"
            )
    return nodes


def validation_report(
    n_nodes: int = 64,
    nodes_per_pod: int = 32,
    group_size: int = 8,
    sizes: Tuple[float, ...] = (256e6, 1e9),
    kinds: Tuple[str, ...] = ("all_gather", "all_reduce"),
    seed: int = 0,
    trials: int = 200,
    cc_efficiency: float = DEFAULT_CC_EFFICIENCY,
) -> ValidationReport:
    """Price every (kind, size) under both placements and both backends.

    The analytic baseline is placement-blind by construction (it only
    sees the NIC rate), so the same analytic number serves both
    placements; the fabric backend routes the actual paths.  Requires at
    least two pods so the cross-pod placement exists.
    """
    analytic_fns = {
        "all_gather": ring_all_gather,
        "reduce_scatter": ring_reduce_scatter,
        "all_reduce": ring_all_reduce,
    }
    if group_size < 2:
        raise ValueError("group_size must be >= 2 (a 1-ring has no communication)")
    if group_size > nodes_per_pod:
        raise ValueError(
            f"group of {group_size} does not fit the same-ToR placement "
            f"in one pod of {nodes_per_pod} nodes"
        )
    # Interned: at the paper's 12,288-GPU scale (1,536 nodes, ~49k
    # links) rebuilding the fabric would dwarf the pricing itself.
    fabric = shared_fabric(n_nodes, nodes_per_pod)
    if fabric.n_pods < 2:
        raise ValueError("need >= 2 pods for the cross-pod placement")
    same_tor = tuple(range(group_size))
    cross_pod = _cross_pod_nodes(fabric, group_size)
    bandwidth = fabric.nic_rate * cc_efficiency

    deltas = []
    max_rel_error = 0.0
    speedups = []
    for kind in kinds:
        analytic_fn = analytic_fns.get(kind)
        if analytic_fn is None:
            raise ValueError(f"unknown collective kind {kind!r}")
        for size in sizes:
            analytic = analytic_fn(size, group_size, bandwidth, INTER_NODE_LATENCY)
            near = fabric_collective_cost(
                kind, size, same_tor, fabric, cc_efficiency=cc_efficiency
            ).time
            far = fabric_collective_cost(
                kind, size, cross_pod, fabric, cc_efficiency=cc_efficiency
            ).time
            deltas.append(
                PlacementDelta("same_tor", kind, size, group_size, analytic, near)
            )
            deltas.append(
                PlacementDelta("cross_pod", kind, size, group_size, analytic, far)
            )
            if analytic > 0.0:
                max_rel_error = max(max_rel_error, abs(near - analytic) / analytic)
            if near > 0.0:
                speedups.append(far / near)

    benefit = port_split_benefit(
        n_flows=min(nodes_per_pod, n_nodes),
        n_uplinks=fabric.aggs_per_pod * fabric.tor_uplinks_per_agg,
        trials=trials,
        seed=seed,
    )
    return ValidationReport(
        n_nodes=n_nodes,
        nodes_per_pod=nodes_per_pod,
        group_size=group_size,
        seed=seed,
        deltas=tuple(deltas),
        alpha_beta_max_rel_error=max_rel_error,
        same_tor_speedup=sum(speedups) / len(speedups) if speedups else 1.0,
        port_split_benefit=benefit,
    )


__all__ = ["PlacementDelta", "ValidationReport", "validation_report"]
