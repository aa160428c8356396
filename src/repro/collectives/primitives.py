"""Analytic cost models for collective communication.

These are the standard alpha–beta models for ring/tree algorithms, used by
NCCL's own tuner.  ``size`` is always the *full* tensor size in bytes (the
payload each rank ends up having contributed to / received), ``bandwidth``
the per-rank, per-direction link bandwidth in bytes/s, and ``latency`` the
per-hop startup cost in seconds.

A fabric-aware layer (:mod:`repro.collectives.groups`) picks the bandwidth
and latency from the cluster topology and congestion state, or, on the
``"fabric"`` backend, prices the same rings by routing them instead
(:mod:`repro.collectives.fabric`); these functions are deliberately pure
so they can also be unit-tested against closed forms.
"""

from __future__ import annotations

# Fraction of line rate a well-tuned RDMA transport sustains (framing,
# congestion-control headroom).  The MegaScale CC work (§3.6) is what
# keeps this high; the ECMP/fabric models layer the topology losses on
# top.
DEFAULT_CC_EFFICIENCY = 0.90
INTER_NODE_LATENCY = 12e-6  # NIC + 2-6 switch hops + software

# Pricing models selectable wherever a collective is costed: "analytic"
# is the closed-form alpha-beta family below; "fabric" expands the
# collective into per-step flows routed over a ClosFabric
# (:mod:`repro.collectives.fabric`).
COST_BACKENDS = ("analytic", "fabric")


def validate_backend(backend: str) -> str:
    if backend not in COST_BACKENDS:
        raise ValueError(f"unknown cost backend {backend!r} (have {COST_BACKENDS})")
    return backend


def _check(size: float, n_ranks: int, bandwidth: float, latency: float) -> None:
    if size < 0:
        raise ValueError(f"negative collective size: {size}")
    if n_ranks < 1:
        raise ValueError(f"collective needs >= 1 rank, got {n_ranks}")
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    if latency < 0:
        raise ValueError(f"negative latency: {latency}")


def ring_all_reduce(size: float, n_ranks: int, bandwidth: float, latency: float = 0.0) -> float:
    """Ring all-reduce: 2(n-1)/n of the data crosses each link."""
    _check(size, n_ranks, bandwidth, latency)
    if n_ranks == 1 or size == 0:
        return 0.0
    steps = 2 * (n_ranks - 1)
    return steps * (size / n_ranks) / bandwidth + steps * latency


def ring_all_gather(size: float, n_ranks: int, bandwidth: float, latency: float = 0.0) -> float:
    """Ring all-gather of a tensor whose *gathered* size is ``size``."""
    _check(size, n_ranks, bandwidth, latency)
    if n_ranks == 1 or size == 0:
        return 0.0
    steps = n_ranks - 1
    return steps * (size / n_ranks) / bandwidth + steps * latency


def ring_reduce_scatter(size: float, n_ranks: int, bandwidth: float, latency: float = 0.0) -> float:
    """Ring reduce-scatter of a tensor whose *full* size is ``size``."""
    # Symmetric with all-gather in the ring formulation.
    return ring_all_gather(size, n_ranks, bandwidth, latency)


def tree_broadcast(size: float, n_ranks: int, bandwidth: float, latency: float = 0.0) -> float:
    """Binary-tree broadcast (used for checkpoint-recovery fan-out, §4.4)."""
    _check(size, n_ranks, bandwidth, latency)
    if n_ranks == 1 or size == 0:
        return 0.0
    import math

    depth = math.ceil(math.log2(n_ranks))
    return depth * (size / bandwidth + latency)


def all_to_all(size: float, n_ranks: int, bandwidth: float, latency: float = 0.0) -> float:
    """All-to-all where each rank holds ``size`` bytes total to distribute."""
    _check(size, n_ranks, bandwidth, latency)
    if n_ranks == 1 or size == 0:
        return 0.0
    return size * (n_ranks - 1) / n_ranks / bandwidth + (n_ranks - 1) * latency


def point_to_point(size: float, bandwidth: float, latency: float = 0.0) -> float:
    """A single send/recv pair (pipeline-parallel activations)."""
    _check(size, 1, bandwidth, latency)
    return size / bandwidth + latency
