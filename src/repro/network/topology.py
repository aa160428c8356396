"""Three-layer CLOS fabric (§3.6).

The fabric mirrors the paper's datacenter network:

* **Pods** of ``nodes_per_pod`` GPU servers.  Each server has 8 NICs
  attached *multi-rail*: NIC ``r`` of every server in a pod connects to
  the pod's rail-``r`` ToR switch.  With split 400G->2x200G downlink ports
  a ToR serves 64 servers, matching "the number of GPU servers connected
  by the same sets of ToR switches can reach 64".
* **Aggregation** switches per pod; every ToR has parallel uplinks to each
  aggregation switch (ECMP spreads flows across them).
* **Spine** switches interconnect pods; every aggregation switch has
  parallel uplinks to each spine.

Rail-aligned traffic (GPU ``i`` talks to GPU ``i`` elsewhere, as NCCL
rings do) stays on one rail: two hops inside a pod, six hops across pods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..exec.memo import memoized
from .link import Link
from .routing import ecmp_choice
from .switch import Switch, SwitchRole, agg_role, spine_role, tor_role


class _LinkGraph:
    """A link-graph attribute of :class:`ClosFabric`, built on first read.

    The first read builds the whole graph as instance attributes, which
    shadow this (non-data) descriptor from then on: later reads are
    plain attribute loads.  Unlike ``functools.cached_property`` it
    never touches the instance ``__dict__``: once materialized, that
    dict makes every later attribute read of the fabric slower, and
    routing reads many.
    """

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, fabric: Optional["ClosFabric"], owner: type) -> Any:
        if fabric is None:
            return self
        fabric._build()
        return getattr(fabric, self.name)


@dataclass(eq=False)  # identity equality: same-config fabrics can differ in link state
class ClosFabric:
    """A fabric's shape, placement arithmetic and (built lazily) its links.

    ``pod_of``, ``same_tor``, ``hops`` and ``nodes_in_pod`` answer by
    arithmetic.  The link graph — ``switches``, ``links`` and
    ``parallel_links`` — is built the first time one of them is read,
    which only routing (:meth:`path`) and :meth:`set_link_state` do:
    about 49k :class:`~repro.network.link.Link` objects at 12,288 GPUs
    that an analytic comm model never needs.

    The fabric owns its links' up/down state: :meth:`set_link_state` is
    the one writer, and it records the down links in one sorted tuple
    that :meth:`fingerprint`, :meth:`degraded` and routing all read.
    """

    n_nodes: int
    nodes_per_pod: int = 64
    rails: int = 8
    aggs_per_pod: int = 8
    n_spines: int = 8
    tor_uplinks_per_agg: int = 4
    agg_uplinks_per_spine: int = 4
    split_tor_downlinks: bool = True
    nic_rate: float = 0.0  # derived from the ToR role if 0

    switches = _LinkGraph()
    links = _LinkGraph()
    # Parallel links between switch pairs for ECMP: (src, dst) -> [Link].
    parallel_links = _LinkGraph()

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("fabric needs at least one node")
        if self.rails < 1 or self.nodes_per_pod < 1:
            raise ValueError("rails and nodes_per_pod must be positive")
        self._tor = tor_role(split_downlinks=self.split_tor_downlinks)
        self._agg = agg_role()
        self._spine = spine_role()
        if self.nic_rate == 0.0:
            self.nic_rate = self._tor.downlink_rate
        # Down links as sorted (src, dst, parallel index) entries.
        self._down: Tuple[Tuple[str, str, int], ...] = ()

    # -- construction -----------------------------------------------------

    @property
    def n_pods(self) -> int:
        return -(-self.n_nodes // self.nodes_per_pod)

    def pod_of(self, node: int) -> int:
        self._check_node(node)
        return node // self.nodes_per_pod

    def tor_name(self, pod: int, rail: int) -> str:
        return f"tor{pod}.{rail}"

    def _build(self) -> None:
        self.switches: Dict[str, Switch] = {}
        self.links: Dict[Tuple[str, str], Link] = {}
        self.parallel_links: Dict[Tuple[str, str], List[Link]] = {}
        for pod in range(self.n_pods):
            for rail in range(self.rails):
                self._add_switch(self.tor_name(pod, rail), self._tor)
            for a in range(self.aggs_per_pod):
                self._add_switch(f"agg{pod}.{a}", self._agg)
        for s in range(self.n_spines):
            self._add_switch(f"spine{s}", self._spine)

        for node in range(self.n_nodes):
            pod = node // self.nodes_per_pod
            for rail in range(self.rails):
                tor = self.tor_name(pod, rail)
                self._add_duplex(f"node{node}.nic{rail}", tor, self.nic_rate, 1e-6)

        for pod in range(self.n_pods):
            for rail in range(self.rails):
                tor = self.tor_name(pod, rail)
                for a in range(self.aggs_per_pod):
                    agg = f"agg{pod}.{a}"
                    for k in range(self.tor_uplinks_per_agg):
                        self._add_parallel(tor, agg, k, self._tor.uplink_rate)
            for a in range(self.aggs_per_pod):
                agg = f"agg{pod}.{a}"
                for s in range(self.n_spines):
                    spine = f"spine{s}"
                    for k in range(self.agg_uplinks_per_spine):
                        self._add_parallel(agg, spine, k, self._agg.uplink_rate)

    def _add_switch(self, name: str, role: SwitchRole) -> None:
        self.switches[name] = Switch(role=role, name=name)

    def _add_duplex(self, a: str, b: str, bandwidth: float, latency: float) -> None:
        for src, dst in ((a, b), (b, a)):
            link = Link(src=src, dst=dst, bandwidth=bandwidth, latency=latency)
            self.links[link.key] = link
            self.parallel_links.setdefault((src, dst), []).append(link)

    def _add_parallel(self, a: str, b: str, index: int, bandwidth: float) -> None:
        for src, dst in ((a, b), (b, a)):
            link = Link(src=src, dst=dst, bandwidth=bandwidth, latency=1e-6)
            # Keyed with the parallel index to keep links distinct.
            self.links[(f"{src}#{index}", dst)] = link
            self.parallel_links.setdefault((src, dst), []).append(link)

    # -- queries ------------------------------------------------------------

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise ValueError(f"node {node} outside fabric of {self.n_nodes}")

    def set_link_state(self, src: str, dst: str, up: bool, index: int = 0) -> None:
        """Take link ``index`` of the ``src -> dst`` bundle down or bring it up.

        ``index`` counts the parallel links between the two devices (a
        NIC link has only index 0).  This is the only writer of a fabric
        link's ``up`` flag: a direct ``link.up = False`` leaves routing
        and :meth:`fingerprint` healthy, so the flow solver raises on the
        first flow routed over that link instead of pricing it.  Degrade
        only a private fabric, never a :func:`shared_fabric` one.
        """
        links = self.parallel_links.get((src, dst), ())
        if not 0 <= index < len(links):
            raise ValueError(f"no link {src} -> {dst} #{index} in this fabric")
        links[index].up = up
        down = set(self._down)
        if up:
            down.discard((src, dst, index))
        else:
            down.add((src, dst, index))
        self._down = tuple(sorted(down))

    def fingerprint(self) -> Tuple:
        """Hashable identity of the fabric, for memoization keys.

        The constructor configuration plus the down links set by
        :meth:`set_link_state`, so prices cached against one fabric are
        reused by any identically-configured fabric in the same link
        state but never by a degraded (or differently-built) one.
        Reading it neither scans nor builds the link graph.
        """
        return (
            self.n_nodes,
            self.nodes_per_pod,
            self.rails,
            self.aggs_per_pod,
            self.n_spines,
            self.tor_uplinks_per_agg,
            self.agg_uplinks_per_spine,
            self.split_tor_downlinks,
            self.nic_rate,
            self._down,
        )

    def degraded(self) -> bool:
        """Whether any link is currently down."""
        return bool(self._down)

    def same_tor(self, a: int, b: int) -> bool:
        """Whether two nodes share their ToR switch set (same pod)."""
        return self.pod_of(a) == self.pod_of(b)

    def nodes_in_pod(self, pod: int) -> List[int]:
        """All node indices fronted by pod ``pod``'s ToR set.

        This is the blast radius of a ToR-switch or leaf-link fault: the
        correlated fault domains of :mod:`repro.fault.domains` map onto
        these groups.
        """
        if not 0 <= pod < self.n_pods:
            raise ValueError(f"pod {pod} outside 0..{self.n_pods - 1}")
        start = pod * self.nodes_per_pod
        return list(range(start, min(start + self.nodes_per_pod, self.n_nodes)))

    def hops(self, src: int, dst: int) -> int:
        """Number of links a rail-aligned packet crosses."""
        if src == dst:
            return 0
        if self.same_tor(src, dst):
            return 2  # nic -> tor -> nic
        return 6  # nic -> tor -> agg -> spine -> agg -> tor -> nic

    def _pick(self, src: str, dst: str, flow_id: int) -> Link:
        candidates = self.parallel_links[(src, dst)]
        if self._down:
            candidates = [
                l for i, l in enumerate(candidates) if (src, dst, i) not in self._down
            ]
            if not candidates:
                raise RuntimeError(f"no live link {src} -> {dst}")
        return candidates[ecmp_choice(flow_id, src, dst, len(candidates))]

    def path(self, src: int, dst: int, rail: int, flow_id: int = 0) -> List[Link]:
        """ECMP-resolved link path for a rail-aligned flow."""
        self._check_node(src)
        self._check_node(dst)
        if not 0 <= rail < self.rails:
            raise ValueError(f"rail {rail} outside 0..{self.rails - 1}")
        if src == dst:
            return []
        src_pod, dst_pod = self.pod_of(src), self.pod_of(dst)
        src_nic = f"node{src}.nic{rail}"
        dst_nic = f"node{dst}.nic{rail}"
        src_tor = self.tor_name(src_pod, rail)
        dst_tor = self.tor_name(dst_pod, rail)
        if src_pod == dst_pod:
            return [
                self._pick(src_nic, src_tor, flow_id),
                self._pick(src_tor, dst_nic, flow_id),
            ]
        agg_up = f"agg{src_pod}.{ecmp_choice(flow_id, src_tor, 'aggsel', self.aggs_per_pod)}"
        spine = f"spine{ecmp_choice(flow_id, agg_up, 'spinesel', self.n_spines)}"
        agg_down = f"agg{dst_pod}.{ecmp_choice(flow_id, spine, 'aggdown', self.aggs_per_pod)}"
        return [
            self._pick(src_nic, src_tor, flow_id),
            self._pick(src_tor, agg_up, flow_id),
            self._pick(agg_up, spine, flow_id),
            self._pick(spine, agg_down, flow_id),
            self._pick(agg_down, dst_tor, flow_id),
            self._pick(dst_tor, dst_nic, flow_id),
        ]


@memoized("clos_fabric", maxsize=8)
def shared_fabric(n_nodes: int, nodes_per_pod: int = 64) -> ClosFabric:
    """A process-shared :class:`ClosFabric` of ``n_nodes`` nodes.

    Identically-configured fabrics are immutable for pricing purposes,
    so read-only consumers (``build_comm_model``, ``validation_report``)
    share one instance per shape through the ``"clos_fabric"`` memo
    (LRU-bounded so scale sweeps don't pin every size in memory).
    Interning costs O(1): the link graph (~49k link objects at 1,536
    nodes) is built on the shared instance's first route, so analytic
    comm models, which never route, never build it, and fabric-backend
    plan search builds it once per shape instead of once per candidate.

    Callers that intend to *degrade* links
    (:meth:`ClosFabric.set_link_state`) must build a private
    ``ClosFabric`` instead — flapping a shared instance would leak the
    fault into every other consumer.
    """
    return ClosFabric(n_nodes=n_nodes, nodes_per_pod=nodes_per_pod)
