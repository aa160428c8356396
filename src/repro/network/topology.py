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
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exec.memo import memoized
from .link import Link
from .routing import ecmp_choice
from .switch import agg_role, tor_role


# Latency of every fabric link (NIC<->ToR, ToR<->agg, agg<->spine):
# propagation plus one switch traversal.
LINK_LATENCY = 1e-6


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
    """A fabric's shape, placement arithmetic, link ids and (built lazily) links.

    ``pod_of``, ``same_tor``, ``hops`` and ``nodes_in_pod`` answer by
    arithmetic, and so do link ids: every link has an integer id in four
    blocks — the NIC up-links by (node, rail), the NIC down-links
    likewise, both directions of every member of each ToR<->agg bundle by
    (pod, rail, agg, member), and both directions of every member of each
    agg<->spine bundle by (pod, agg, spine, member).  :meth:`path_ids`
    routes a flow as ids and builds nothing; :meth:`link_bandwidths`
    gives their capacities.

    :class:`~repro.network.link.Link` objects are built on demand, at two
    grains.  :meth:`path` builds only the bundles of parallel links it
    picks from, the first time it picks from each.  The whole graph —
    ``links`` and ``parallel_links``, about 49k links at 12,288 GPUs — is
    built the first time one of them is read (by :meth:`set_link_state`,
    a test or a link counter), and that build reuses every bundle a route
    already made, so each link id has one ``Link`` object however it was
    first reached.  An analytic comm model and the index ring router
    build none.

    The fabric owns its links' up/down state: :meth:`set_link_state` is
    the one writer, and it records the down links in one sorted tuple
    that :meth:`fingerprint`, :meth:`degraded` and routing all read.
    Pricing by id reads a built link's own ``up`` and ``bandwidth``
    (:meth:`built_links`), so a direct write to a built ``Link`` is seen
    too; every link's latency is :data:`LINK_LATENCY`.
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

    links = _LinkGraph()
    # Parallel links between switch pairs for ECMP: (src, dst) -> [Link].
    parallel_links = _LinkGraph()

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("fabric needs at least one node")
        if self.rails < 1 or self.nodes_per_pod < 1:
            raise ValueError("rails and nodes_per_pod must be positive")
        for name in ("aggs_per_pod", "n_spines", "tor_uplinks_per_agg", "agg_uplinks_per_spine"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not self.nic_rate >= 0:
            raise ValueError(f"nic_rate must be >= 0 (0 derives it), got {self.nic_rate}")
        self._tor = tor_role(split_downlinks=self.split_tor_downlinks)
        self._agg = agg_role()
        if self.nic_rate == 0.0:
            self.nic_rate = self._tor.downlink_rate
        # Link-id blocks: the first id of the ToR<->agg and agg<->spine
        # blocks, and each one's offset from a link to its reverse.
        nic_links = self.n_nodes * self.rails
        self._tor_down = self.n_pods * self.rails * self.aggs_per_pod * self.tor_uplinks_per_agg
        self._spine_down = (
            self.n_pods * self.aggs_per_pod * self.n_spines * self.agg_uplinks_per_spine
        )
        self._tor_base = 2 * nic_links
        self._spine_base = self._tor_base + 2 * self._tor_down
        # Down links as sorted (src, dst, parallel index) entries.
        self._down: Tuple[Tuple[str, str, int], ...] = ()
        # Every Link built so far, by link id.
        self._links: Dict[int, Link] = {}

    # -- construction -----------------------------------------------------

    @property
    def n_pods(self) -> int:
        return -(-self.n_nodes // self.nodes_per_pod)

    def pod_of(self, node: int) -> int:
        self._check_node(node)
        return node // self.nodes_per_pod

    def tor_name(self, pod: int, rail: int) -> str:
        return f"tor{pod}.{rail}"

    def nic_up(self, node, rail: int):
        """Id of ``node``'s NIC -> ToR link on ``rail`` (``node`` may be an array)."""
        return node * self.rails + rail

    def nic_down(self, node, rail: int):
        """Id of the ToR -> NIC link of ``node`` on ``rail`` (``node`` may be an array)."""
        return (self.n_nodes + node) * self.rails + rail

    def _tor_agg(self, pod: int, rail: int, agg: int) -> int:
        """First id of the ToR -> agg bundle; ``+ self._tor_down`` is agg -> ToR."""
        return self._tor_base + (
            (pod * self.rails + rail) * self.aggs_per_pod + agg
        ) * self.tor_uplinks_per_agg

    def _agg_spine(self, pod: int, agg: int, spine: int) -> int:
        """First id of the agg -> spine bundle; ``+ self._spine_down`` is spine -> agg."""
        return self._spine_base + (
            (pod * self.aggs_per_pod + agg) * self.n_spines + spine
        ) * self.agg_uplinks_per_spine

    def link_bandwidths(self, ids: np.ndarray) -> np.ndarray:
        """Capacity of each link id: a built ``Link``'s own ``bandwidth``,
        else the NIC, ToR-uplink or agg-uplink rate of the id's block."""
        bandwidth = np.where(
            ids < self._tor_base,
            self.nic_rate,
            np.where(ids < self._spine_base, self._tor.uplink_rate, self._agg.uplink_rate),
        )
        for position, link in self.built_links(ids.tolist()):
            bandwidth[position] = link.bandwidth
        return bandwidth

    def _bundle(self, src: str, dst: str, first: int, count: int, bandwidth: float) -> List[Link]:
        """The ``src -> dst`` bundle, links ``first .. first + count - 1``,
        built on first use."""
        links = self._links
        if first not in links:
            for index in range(count):
                links[first + index] = Link(
                    src=src, dst=dst, bandwidth=bandwidth, latency=LINK_LATENCY
                )
        return [links[first + index] for index in range(count)]

    def _build(self) -> None:
        self.links: Dict[Tuple[str, str], Link] = {}
        self.parallel_links: Dict[Tuple[str, str], List[Link]] = {}
        for node in range(self.n_nodes):
            pod = node // self.nodes_per_pod
            for rail in range(self.rails):
                self._add_duplex(
                    f"node{node}.nic{rail}", self.tor_name(pod, rail),
                    self.nic_up(node, rail), self.nic_down(node, rail), 1, self.nic_rate,
                )

        for pod in range(self.n_pods):
            for rail in range(self.rails):
                tor = self.tor_name(pod, rail)
                for a in range(self.aggs_per_pod):
                    first = self._tor_agg(pod, rail, a)
                    self._add_duplex(
                        tor, f"agg{pod}.{a}", first, first + self._tor_down,
                        self.tor_uplinks_per_agg, self._tor.uplink_rate,
                    )
            for a in range(self.aggs_per_pod):
                agg = f"agg{pod}.{a}"
                for s in range(self.n_spines):
                    first = self._agg_spine(pod, a, s)
                    self._add_duplex(
                        agg, f"spine{s}", first, first + self._spine_down,
                        self.agg_uplinks_per_spine, self._agg.uplink_rate,
                    )

    def _add_duplex(
        self, a: str, b: str, forward: int, reverse: int, count: int, bandwidth: float
    ) -> None:
        """Both directions' bundles between ``a`` and ``b`` into the graph,
        ``a -> b`` from link id ``forward`` and ``b -> a`` from ``reverse``.

        A NIC link is keyed by its ``(src, dst)``; a switch uplink, one of
        a parallel bundle, by ``("src#index", dst)`` to keep links distinct.
        """
        nic = a.startswith("node")
        bundles = {
            (a, b): self._bundle(a, b, forward, count, bandwidth),
            (b, a): self._bundle(b, a, reverse, count, bandwidth),
        }
        self.parallel_links.update(bundles)
        for index in range(count):
            for (src, dst), bundle in bundles.items():
                self.links[(src, dst) if nic else (f"{src}#{index}", dst)] = bundle[index]

    # -- queries ------------------------------------------------------------

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise ValueError(f"node {node} outside fabric of {self.n_nodes}")

    def set_link_state(self, src: str, dst: str, up: bool, index: int = 0) -> None:
        """Take link ``index`` of the ``src -> dst`` bundle down or bring it up.

        ``index`` counts the parallel links between the two devices (a
        NIC link has only index 0).  This is the only writer of a fabric
        link's ``up`` flag: a direct ``link.up = False`` leaves routing
        and :meth:`fingerprint` healthy, so the flow solver and the ring
        router (through :meth:`built_links`) raise on the first flow
        routed over that link instead of pricing it.  Degrade only a private
        fabric, never a :func:`shared_fabric` one.
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

    def built_links(self, link_ids: Sequence[int]) -> List[Tuple[int, Link]]:
        """``(position, Link)`` of each of ``link_ids`` whose ``Link`` is built.

        Where a link is built, its ``Link`` is the record of its state:
        :meth:`set_link_state` builds the whole graph before it writes,
        so a link never built was never written, and a direct write to a
        built link (``up``, ``bandwidth``) is seen here.
        """
        if not self._links:
            return []
        get = self._links.get
        return [(i, link) for i, link in enumerate(map(get, link_ids)) if link is not None]

    def _hops(
        self, src: int, dst: int, rail: int, flow_id: int
    ) -> List[Tuple[str, str, int, int, float]]:
        """The bundles a rail-aligned flow crosses, in path order, as
        ``(src device, dst device, first link id, members, bandwidth)``.

        ECMP picks the agg and spine switches by hashing device names.
        """
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
        nic = self.nic_rate
        up = (src_nic, src_tor, self.nic_up(src, rail), 1, nic)
        down = (dst_tor, dst_nic, self.nic_down(dst, rail), 1, nic)
        if src_pod == dst_pod:  # then dst_tor is src_tor
            return [up, down]
        tors, tor_rate = self.tor_uplinks_per_agg, self._tor.uplink_rate
        aggs, agg_rate = self.agg_uplinks_per_spine, self._agg.uplink_rate
        a_up = ecmp_choice(flow_id, src_tor, "aggsel", self.aggs_per_pod)
        agg_up = f"agg{src_pod}.{a_up}"
        s = ecmp_choice(flow_id, agg_up, "spinesel", self.n_spines)
        spine = f"spine{s}"
        a_down = ecmp_choice(flow_id, spine, "aggdown", self.aggs_per_pod)
        agg_down = f"agg{dst_pod}.{a_down}"
        return [
            up,
            (src_tor, agg_up, self._tor_agg(src_pod, rail, a_up), tors, tor_rate),
            (agg_up, spine, self._agg_spine(src_pod, a_up, s), aggs, agg_rate),
            (spine, agg_down, self._agg_spine(dst_pod, a_down, s) + self._spine_down, aggs, agg_rate),
            (agg_down, dst_tor, self._tor_agg(dst_pod, rail, a_down) + self._tor_down, tors, tor_rate),
            down,
        ]

    def _pick(self, src: str, dst: str, flow_id: int, count: int) -> int:
        """The member of the ``src -> dst`` bundle a flow's ECMP hash picks,
        skipping the members :meth:`set_link_state` took down."""
        if not self._down:
            return ecmp_choice(flow_id, src, dst, count)
        live = [i for i in range(count) if (src, dst, i) not in self._down]
        if not live:
            raise RuntimeError(f"no live link {src} -> {dst}")
        return live[ecmp_choice(flow_id, src, dst, len(live))]

    def path(self, src: int, dst: int, rail: int, flow_id: int = 0) -> List[Link]:
        """ECMP-resolved link path for a rail-aligned flow.

        Builds only the bundles it picks from (see the class docstring).
        """
        return [
            self._bundle(a, b, first, count, bandwidth)[self._pick(a, b, flow_id, count)]
            for a, b, first, count, bandwidth in self._hops(src, dst, rail, flow_id)
        ]

    def path_ids(self, src: int, dst: int, rail: int, flow_id: int = 0) -> List[int]:
        """The link ids of :meth:`path`'s route: same picks and errors, no ``Link``."""
        return [
            first + self._pick(a, b, flow_id, count)
            for a, b, first, count, _ in self._hops(src, dst, rail, flow_id)
        ]


@memoized("clos_fabric", maxsize=8)
def shared_fabric(n_nodes: int, nodes_per_pod: int = 64) -> ClosFabric:
    """A process-shared :class:`ClosFabric` of ``n_nodes`` nodes.

    Identically-configured fabrics are immutable for pricing purposes,
    so read-only consumers (``build_comm_model``, ``validation_report``)
    share one instance per shape through the ``"clos_fabric"`` memo
    (LRU-bounded so scale sweeps don't pin every size in memory).
    Interning costs O(1): a route builds only the link bundles it uses,
    the first time it uses them, and the whole link graph (~49k link
    objects at 1,536 nodes) only on its first read.  So analytic comm
    models, which never route, build no links, and fabric-backend plan
    search builds each bundle once per shape instead of once per
    candidate.

    Callers that intend to *degrade* links
    (:meth:`ClosFabric.set_link_state`) must build a private
    ``ClosFabric`` instead — flapping a shared instance would leak the
    fault into every other consumer.
    """
    return ClosFabric(n_nodes=n_nodes, nodes_per_pod=nodes_per_pod)
