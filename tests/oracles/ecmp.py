"""The per-trial ECMP conflict model: the oracle for the array pass.

:func:`repro.network.ecmp.expected_conflict_stats` hashes every trial's
flows into one row of an array and prices all rows at once.  These are
the functions it replaced: each trial buckets its flows by uplink in a
dict, lists each flow's share uplink by uplink and reduces the list.
The properties in ``tests/network/test_ecmp_flow.py`` hold the two to
the same :class:`~repro.network.ecmp.ConflictStats` with ``==``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.network.ecmp import ConflictStats
from repro.network.routing import ecmp_choice


def hash_flows_onto_uplinks(flow_ids: Sequence[int], src: str, dst: str, n_uplinks: int) -> Dict[int, List[int]]:
    """Map uplink index -> flows hashed onto it."""
    buckets: Dict[int, List[int]] = {i: [] for i in range(n_uplinks)}
    for fid in flow_ids:
        buckets[ecmp_choice(fid, src, dst, n_uplinks)].append(fid)
    return buckets


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
