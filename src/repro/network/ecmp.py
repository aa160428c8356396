"""ECMP hash-conflict analysis (§3.6 "Reducing ECMP hashing conflicts").

Two mitigations from the paper, both quantifiable here:

1. **Port splitting** — ToR downlinks run at 200G while uplinks stay at
   400G, so an uplink can absorb two conflicting flows at full rate; a
   conflict only hurts when 3+ flows collide.
2. **Same-ToR scheduling** — placing communication-heavy node groups
   under one ToR set removes the uplink traversal entirely (2-hop paths),
   eliminating the conflict opportunity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exec.memo import memoized
from .routing import ecmp_choices


@dataclass(frozen=True)
class ConflictStats:
    """Outcome of hashing a set of equal-rate flows onto uplinks."""

    n_flows: int
    n_uplinks: int
    uplink_to_flow_rate: float  # uplink bandwidth / per-flow demand
    max_load: int
    mean_flow_throughput: float  # fraction of demand achieved, averaged
    min_flow_throughput: float
    conflict_probability: float  # P(a flow is degraded): degraded flows / n_flows


def expected_conflict_stats(
    n_flows: int,
    n_uplinks: int,
    uplink_to_flow_rate: float = 1.0,
    trials: int = 200,
    seed: int = 0,
) -> ConflictStats:
    """Monte-Carlo average over random flow 5-tuples (fresh ids per trial).

    Each trial hashes ``n_flows`` fresh ids onto ``n_uplinks`` ToR
    uplinks; flows on a shared uplink split its bandwidth equally.
    ``uplink_to_flow_rate`` is the ratio of uplink bandwidth to each
    flow's full demand: 1.0 models unsplit ports (400G flows on 400G
    uplinks), 2.0 models the paper's split ports (200G flows on 400G
    uplinks).  All trials are priced in one array pass, one row each.
    """
    if n_flows < 1:
        raise ValueError(f"n_flows must be at least 1, got {n_flows}")
    if n_uplinks < 1:
        raise ValueError(f"n_uplinks must be at least 1, got {n_uplinks}")
    if not uplink_to_flow_rate > 0:  # NaN too: it would price as no conflict
        raise ValueError(f"uplink_to_flow_rate must be > 0, got {uplink_to_flow_rate}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = np.random.default_rng(seed)
    uplinks = np.empty((trials, n_flows), dtype=np.uint32)
    for row in uplinks:
        row[:] = ecmp_choices(rng.integers(0, 2**31, size=n_flows).tolist(), "tor", "agg", n_uplinks)
    # A sorted row lists its flows uplink by uplink, so its shares sum in
    # the same order as a per-trial list of them would.
    uplinks.sort(axis=1)
    # Number each (trial, uplink) bucket apart, so a load counts one row.
    buckets = uplinks + np.arange(0, trials * n_uplinks, n_uplinks)[:, None]
    _, bucket, sizes = np.unique(buckets.ravel(), return_inverse=True, return_counts=True)
    loads = sizes[bucket].reshape(trials, n_flows)
    shares = np.minimum(1.0, uplink_to_flow_rate / loads)
    degraded = np.count_nonzero(shares < 1.0, axis=1)
    return ConflictStats(
        n_flows=n_flows,
        n_uplinks=n_uplinks,
        uplink_to_flow_rate=uplink_to_flow_rate,
        max_load=int(np.mean(loads.max(axis=1)).round()),
        mean_flow_throughput=float(np.mean(shares.mean(axis=1))),
        min_flow_throughput=float(np.mean(shares.min(axis=1))),
        conflict_probability=float(np.mean(degraded / n_flows)),
    )


def port_split_benefit(n_flows: int, n_uplinks: int, trials: int = 200, seed: int = 0) -> float:
    """Mean-throughput improvement factor from 400G->2x200G splitting."""
    unsplit = expected_conflict_stats(n_flows, n_uplinks, 1.0, trials, seed)
    split = expected_conflict_stats(n_flows, n_uplinks, 2.0, trials, seed)
    return split.mean_flow_throughput / unsplit.mean_flow_throughput


@memoized("conflict_factor")
def conflict_factor(n_flows: int, n_uplinks: int, trials: int) -> float:
    """Mean fraction of its demand a flow gets when ``n_flows`` rails hash
    onto ``n_uplinks`` split-port uplinks (each uplink carries two flows
    at full rate, so only 3+ colliding flows lose throughput).

    The analytic ring prices cross-pod hops with it (64 rails on a ToR's
    32 uplinks) and the scheduler prices tenants sharing a pod.  Computed
    from the seeded Monte Carlo conflict model, so the number is
    mechanistic, not fitted.
    """
    return expected_conflict_stats(n_flows, n_uplinks, 2.0, trials).mean_flow_throughput
