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

:class:`IncrementalMaxMinSolver` keeps the link-indexing structure
alive across solves: ring steps that reuse one flow configuration pay
for a single solve, and a step that shifts flows between links updates
only the touched flows' bookkeeping before the next vectorized
water-fill.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

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


def _assign_local_rates(flows: Sequence[Flow]) -> Dict[int, Flow]:
    """Give empty-path (same-host) flows their demand; return the rest.

    Same-host traffic never crosses a fabric link, so it is priced as
    latency-only local traffic: the flow runs at its full demand — and
    an *unbounded* demand means an unbounded rate, not zero.  (A ``0.0``
    rate here used to make :func:`transfer_time` raise ``RuntimeError``
    for perfectly healthy local transfers.)
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
            if not link.up:
                raise RuntimeError(f"flow {f.flow_id} routed over down link {link.name}")
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
    if len(ordered) == 1:
        # Closed form: a lone flow takes its narrowest link (or demand).
        f = ordered[0]
        occurrences: Dict[Link, int] = {}
        for link in f.path:
            if not link.up:
                raise RuntimeError(f"flow {f.flow_id} routed over down link {link.name}")
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


class IncrementalMaxMinSolver:
    """Max-min shares maintained across flow-set edits.

    Keeps the link-indexing structure (distinct links, per-flow link
    indices, capacities) alive between solves so that:

    * an unchanged flow set returns the cached allocation outright —
      ring collectives whose steps reuse one flow configuration pay for
      a single solve, not one per step;
    * :meth:`move_flow` (a step shifting a flow onto different links)
      re-indexes only that flow's path before the next vectorized
      water-fill, instead of rebuilding every per-link dict from
      scratch;
    * a link flapping down or up invalidates the cached allocation
      automatically (via :meth:`repro.network.link.Link.watch`), so a
      stale clean-fabric solution can never be replayed across a fault.
    """

    def __init__(self, flows: Iterable[Flow] = ()) -> None:
        self._flows: Dict[int, Flow] = {}
        self._edges: Dict[int, Tuple[int, ...]] = {}  # flow_id -> link indices
        self._link_index: Dict[Link, int] = {}
        self._links: List[Link] = []
        self._rates: Optional[Dict[int, float]] = None
        self._solves = 0
        for flow in flows:
            self.add_flow(flow)

    # -- bookkeeping -----------------------------------------------------------

    def _invalidate(self) -> None:
        self._rates = None

    def _index_path(self, flow: Flow) -> Tuple[int, ...]:
        indices = []
        for link in flow.path:
            li = self._link_index.get(link)
            if li is None:
                li = self._link_index[link] = len(self._links)
                self._links.append(link)
                link.watch(self._make_watcher())
            indices.append(li)
        return tuple(indices)

    def _make_watcher(self) -> Callable[[], None]:
        import weakref

        ref = weakref.ref(self)

        def invalidate() -> None:
            solver = ref()
            if solver is not None:
                solver._invalidate()

        return invalidate

    @property
    def n_flows(self) -> int:
        return len(self._flows)

    @property
    def solves(self) -> int:
        """Water-fills actually run (cached returns don't count)."""
        return self._solves

    def add_flow(self, flow: Flow) -> None:
        if flow.flow_id in self._flows:
            raise ValueError(f"flow {flow.flow_id} already present")
        self._flows[flow.flow_id] = flow
        self._edges[flow.flow_id] = self._index_path(flow)
        self._invalidate()

    def remove_flow(self, flow_id: int) -> Flow:
        flow = self._flows.pop(flow_id)  # KeyError propagates
        del self._edges[flow_id]
        self._invalidate()
        return flow

    def move_flow(self, flow_id: int, new_path: Sequence[Link]) -> None:
        """Shift one flow onto a different link path (O(path) work)."""
        flow = self._flows[flow_id]
        flow.path = list(new_path)
        self._edges[flow_id] = self._index_path(flow)
        self._invalidate()

    # -- solving ---------------------------------------------------------------

    def solve(self) -> Dict[int, float]:
        """The allocation ``flow_id -> rate`` (cached when unchanged).

        The returned dict is the solver's cached object — treat it as
        read-only.  Rates are also stored on the flows.
        """
        if self._rates is not None:
            return self._rates
        routed = [f for f in self._flows.values() if f.path]
        for f in self._flows.values():
            if not f.path:
                f.rate = f.demand
        edge_flow: List[int] = []
        edge_link: List[int] = []
        for fi, f in enumerate(routed):
            for li in self._edges[f.flow_id]:
                edge_flow.append(fi)
                edge_link.append(li)
        for f in routed:
            for link in f.path:
                if not link.up:
                    raise RuntimeError(
                        f"flow {f.flow_id} routed over down link {link.name}"
                    )
        allocated: Dict[int, float] = {}
        if routed:
            capacity = np.array([l.bandwidth for l in self._links], dtype=float)
            demand = np.array([f.demand for f in routed], dtype=float)
            rates = _waterfill(
                demand,
                np.asarray(edge_flow, dtype=np.intp),
                np.asarray(edge_link, dtype=np.intp),
                capacity,
            )
            for f, rate in zip(routed, rates.tolist()):
                f.rate = rate
                allocated[f.flow_id] = rate
        self._solves += 1
        self._rates = allocated
        return allocated


def transfer_time(size: float, flow: Flow) -> float:
    """Seconds to move ``size`` bytes at the flow's allocated rate."""
    if size < 0:
        raise ValueError("negative transfer size")
    if size == 0:
        return 0.0
    if flow.rate <= 0:
        raise RuntimeError(f"flow {flow.flow_id} has no allocated rate")
    latency = sum(l.latency for l in flow.path)
    return size / flow.rate + latency


@dataclass
class TrafficMatrix:
    """A named batch of flows evaluated together (one comm phase)."""

    flows: List[Flow] = field(default_factory=list)

    def add(self, flow: Flow) -> None:
        self.flows.append(flow)

    def allocate(self) -> Dict[int, float]:
        return max_min_fair_rates(self.flows)

    def bottleneck_rate(self) -> float:
        rates = [f.rate for f in self.flows if f.path]
        return min(rates) if rates else float("inf")
