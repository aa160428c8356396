"""The per-flow water-filling oracle for max-min fair rates.

This is the original Python implementation of the fluid bandwidth model.
:func:`repro.network.flow.max_min_fair_rates` replays its arithmetic in
numpy (same share divisions, same flow-major subtraction order, same
bottleneck tolerance), and the property tests in
``tests/network/test_flow_solver.py`` hold the two within 1e-9 relative.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.network.flow import BOTTLENECK_RTOL, Flow, _assign_local_rates
from repro.network.link import Link


def max_min_fair_rates_reference(flows: Sequence[Flow]) -> Dict[int, float]:
    """Water-filling oracle: repeatedly saturate the most-constrained link.

    Returns ``flow_id -> rate`` and also stores the rate on each flow.
    Flows with empty paths (same-node traffic) get their full demand.
    """
    remaining = _assign_local_rates(flows)

    capacity: Dict[Link, float] = {}
    users: Dict[Link, List[Flow]] = {}
    for f in remaining.values():
        for link in f.path:
            if not link.up:
                raise RuntimeError(f"flow {f.flow_id} routed over down link {link.name}")
            capacity.setdefault(link, link.bandwidth)
            users.setdefault(link, []).append(f)

    allocated: Dict[int, float] = {}
    active = set(remaining)
    while active:
        # Fair share each link could still give its active users.
        bottleneck_share: Optional[float] = None
        for link, flows_on_link in users.items():
            live = [f for f in flows_on_link if f.flow_id in active]
            if not live:
                continue
            share = capacity[link] / len(live)
            if bottleneck_share is None or share < bottleneck_share:
                bottleneck_share = share
        if bottleneck_share is None:
            break
        # Demand-limited flows below the share finish first.
        demand_limited = [
            f for f in remaining.values()
            if f.flow_id in active and f.demand <= bottleneck_share
        ]
        batch = demand_limited or [
            f
            for f in remaining.values()
            if f.flow_id in active and _is_bottlenecked(f, users, capacity, active, bottleneck_share)
        ]
        if not batch:  # numerical fallback: finish everything at the share
            batch = [remaining[fid] for fid in active]
        for f in batch:
            rate = min(f.demand, bottleneck_share)
            allocated[f.flow_id] = rate
            f.rate = rate
            active.discard(f.flow_id)
            for link in f.path:
                capacity[link] = max(0.0, capacity[link] - rate)
    return allocated


def _is_bottlenecked(
    flow: Flow,
    users: Dict[Link, List[Flow]],
    capacity: Dict[Link, float],
    active: set,
    share: float,
) -> bool:
    for link in flow.path:
        live = sum(1 for f in users[link] if f.flow_id in active)
        if live and abs(capacity[link] / live - share) < BOTTLENECK_RTOL * max(1.0, share):
            return True
    return False
