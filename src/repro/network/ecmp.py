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
from typing import Sequence

import numpy as np

from ..exec.memo import memoized
from .routing import hash_flows_onto_uplinks


@dataclass(frozen=True)
class ConflictStats:
    """Outcome of hashing a set of equal-rate flows onto uplinks."""

    n_flows: int
    n_uplinks: int
    uplink_to_flow_rate: float  # uplink bandwidth / per-flow demand
    max_load: int
    mean_flow_throughput: float  # fraction of demand achieved, averaged
    min_flow_throughput: float
    conflict_probability: float  # P(at least one flow degraded)


def conflict_stats(
    flow_ids: Sequence[int],
    n_uplinks: int,
    uplink_to_flow_rate: float = 1.0,
    src: str = "tor",
    dst: str = "agg",
) -> ConflictStats:
    """Evaluate one concrete hashing outcome.

    ``uplink_to_flow_rate`` is the ratio of uplink bandwidth to each
    flow's full demand: 1.0 models unsplit ports (400G flows on 400G
    uplinks), 2.0 models the paper's split ports (200G flows on 400G
    uplinks).
    """
    if not flow_ids:
        raise ValueError("need at least one flow")
    buckets = hash_flows_onto_uplinks(flow_ids, src, dst, n_uplinks)
    throughputs = []
    degraded = 0
    for flows in buckets.values():
        load = len(flows)
        if load == 0:
            continue
        # Flows on a shared uplink split its bandwidth equally.
        share = min(1.0, uplink_to_flow_rate / load)
        throughputs.extend([share] * load)
        if share < 1.0:
            degraded += load
    arr = np.asarray(throughputs)
    return ConflictStats(
        n_flows=len(flow_ids),
        n_uplinks=n_uplinks,
        uplink_to_flow_rate=uplink_to_flow_rate,
        max_load=max(len(v) for v in buckets.values()),
        mean_flow_throughput=float(arr.mean()),
        min_flow_throughput=float(arr.min()),
        conflict_probability=degraded / len(flow_ids),
    )


def expected_conflict_stats(
    n_flows: int,
    n_uplinks: int,
    uplink_to_flow_rate: float = 1.0,
    trials: int = 200,
    seed: int = 0,
) -> ConflictStats:
    """Monte-Carlo average over random flow 5-tuples (fresh ids per trial)."""
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    means, mins, probs, max_loads = [], [], [], []
    for _ in range(trials):
        ids = rng.integers(0, 2**31, size=n_flows).tolist()
        s = conflict_stats(ids, n_uplinks, uplink_to_flow_rate)
        means.append(s.mean_flow_throughput)
        mins.append(s.min_flow_throughput)
        probs.append(s.conflict_probability)
        max_loads.append(s.max_load)
    return ConflictStats(
        n_flows=n_flows,
        n_uplinks=n_uplinks,
        uplink_to_flow_rate=uplink_to_flow_rate,
        max_load=int(np.mean(max_loads).round()),
        mean_flow_throughput=float(np.mean(means)),
        min_flow_throughput=float(np.mean(mins)),
        conflict_probability=float(np.mean(probs)),
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
