"""Max-min fair bandwidth allocation (fluid flow model).

Collectives and checkpoint traffic are modelled as sets of flows, each
traversing a list of links.  The classic water-filling algorithm assigns
each flow its max-min fair rate; the collective layer then derives
transfer times from the bottleneck rate.

:func:`max_min_fair_rates` water-fills in numpy: one per-link
flow-count/capacity matrix per saturation level instead of per-flow dict
loops, which is what makes ``backend="fabric"`` usable at the paper's
12,288 GPUs.  It replays the arithmetic of the original per-flow loop
(same share divisions, same flow-major subtraction order, same
bottleneck tolerance).  That loop is the test oracle in
``tests/oracles/flow.py``; a property test holds the two within 1e-9
relative.

A flow routed over a down link is an error, never a zero rate: the
solver raises ``RuntimeError`` rather than price a path the fabric
could not carry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .link import Link

# Relative tolerance deciding whether a link sits at the bottleneck
# water level (shared with the test oracle so both freeze identical batches).
BOTTLENECK_RTOL = 1e-9


@dataclass
class Flow:
    """A unidirectional traffic demand across a fixed link path."""

    flow_id: int
    path: List[Link]
    demand: float = float("inf")  # bytes/s the source could push
    rate: float = 0.0  # assigned by the allocator

    def __post_init__(self) -> None:
        if self.demand <= 0:
            raise ValueError("flow demand must be positive")


def check_links_up(flows: Sequence[Flow]) -> None:
    """Raise ``RuntimeError`` naming the first flow routed over a down link."""
    for f in flows:
        for link in f.path:
            if not link.up:
                raise RuntimeError(f"flow {f.flow_id} routed over down link {link.name}")


def _assign_local_rates(flows: Sequence[Flow]) -> Dict[int, Flow]:
    """Give empty-path (same-host) flows their demand; return the rest.

    Same-host traffic never crosses a fabric link, so it is priced as
    latency-only local traffic: the flow runs at its full demand — and
    an *unbounded* demand means an unbounded rate, not zero.
    """
    remaining = {f.flow_id: f for f in flows if f.path}
    for f in flows:
        if not f.path:
            f.rate = f.demand
    return remaining


def _index_links(
    ordered: Sequence[Flow],
) -> Tuple[List[Link], np.ndarray, np.ndarray, np.ndarray]:
    """(links, edge_flow, edge_link, capacities) of a routed flow set.

    Edges are laid out flow-major — the same order the oracle walks —
    so the unbuffered ``np.subtract.at`` accumulations below reproduce
    its floating-point sequence exactly.
    """
    link_index: Dict[Link, int] = {}
    links: List[Link] = []
    edge_flow: List[int] = []
    edge_link: List[int] = []
    for fi, f in enumerate(ordered):
        for link in f.path:
            li = link_index.get(link)
            if li is None:
                li = link_index[link] = len(links)
                links.append(link)
            edge_flow.append(fi)
            edge_link.append(li)
    capacities = np.array([l.bandwidth for l in links], dtype=float)
    return (
        links,
        np.asarray(edge_flow, dtype=np.intp),
        np.asarray(edge_link, dtype=np.intp),
        capacities,
    )


def _waterfill(
    demand: np.ndarray,
    edge_flow: np.ndarray,
    edge_link: np.ndarray,
    capacity: np.ndarray,
) -> np.ndarray:
    """Vectorized water-filling over the per-link flow-count matrix.

    Each iteration freezes one saturation level: the per-link fair
    share is ``capacity / live-user-count`` computed for every link at
    once, demand-limited flows below the bottleneck share finish first,
    otherwise every flow touching a bottleneck-level link freezes at
    the share.  Identical batch selection and subtraction order as the
    per-flow oracle.
    """
    n_flows = demand.shape[0]
    n_links = capacity.shape[0]
    capacity = capacity.copy()
    rates = np.zeros(n_flows)
    active = np.ones(n_flows, dtype=bool)
    while active.any():
        live_edge = active[edge_flow]
        users = np.bincount(edge_link[live_edge], minlength=n_links)
        used = users > 0
        if not used.any():
            break
        share = np.full(n_links, np.inf)
        share[used] = capacity[used] / users[used]
        bottleneck = share[used].min()
        batch = active & (demand <= bottleneck)
        if not batch.any():
            tol = BOTTLENECK_RTOL * max(1.0, bottleneck)
            at_level = used & (np.abs(share - bottleneck) < tol)
            touches = np.zeros(n_flows, dtype=bool)
            np.logical_or.at(touches, edge_flow[live_edge], at_level[edge_link[live_edge]])
            batch = active & touches
            if not batch.any():  # numerical fallback, as in the oracle
                batch = active.copy()
        flow_rate = np.minimum(demand, bottleneck)
        rates[batch] = flow_rate[batch]
        active &= ~batch
        settle = batch[edge_flow]
        np.subtract.at(capacity, edge_link[settle], flow_rate[edge_flow[settle]])
        np.maximum(capacity, 0.0, out=capacity)
    return rates


def max_min_fair_rates(flows: Sequence[Flow]) -> Dict[int, float]:
    """Max-min fair rates of a flow set (``flow_id -> rate``).

    Rates are also stored on each flow.  Flows with empty paths
    (same-node traffic) get their full demand — including an unbounded
    one — so local transfers price as latency-only.
    """
    remaining = _assign_local_rates(flows)
    ordered = list(remaining.values())
    if not ordered:
        return {}
    check_links_up(ordered)
    if len(ordered) == 1:
        # Closed form: a lone flow takes its narrowest link (or demand).
        f = ordered[0]
        occurrences: Dict[Link, int] = {}
        for link in f.path:
            occurrences[link] = occurrences.get(link, 0) + 1
        rate = min(f.demand, min(l.bandwidth / c for l, c in occurrences.items()))
        f.rate = rate
        return {f.flow_id: rate}
    _, edge_flow, edge_link, capacity = _index_links(ordered)
    demand = np.array([f.demand for f in ordered], dtype=float)
    rates = _waterfill(demand, edge_flow, edge_link, capacity)
    allocated: Dict[int, float] = {}
    for f, rate in zip(ordered, rates.tolist()):
        f.rate = rate
        allocated[f.flow_id] = rate
    return allocated
