"""Tests for the CLOS fabric, links and switches."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.units import Gbps
from repro.network import ClosFabric, Link, TOMAHAWK4, agg_role, tor_role


def make_fabric(n_nodes=128, **kw):
    return ClosFabric(n_nodes=n_nodes, **kw)


def test_tomahawk4_datasheet():
    assert TOMAHAWK4.n_ports == 64
    assert TOMAHAWK4.port_rate == pytest.approx(400 * Gbps)
    assert TOMAHAWK4.total_bandwidth == pytest.approx(64 * 400 * Gbps)


def test_tor_port_splitting():
    split = tor_role(split_downlinks=True)
    unsplit = tor_role(split_downlinks=False)
    assert split.downlink_ports == 64
    assert split.downlink_rate == pytest.approx(200 * Gbps)
    assert split.uplink_rate == pytest.approx(400 * Gbps)
    assert unsplit.downlink_ports == 32
    assert unsplit.downlink_rate == pytest.approx(400 * Gbps)
    # 1:1 downlink:uplink bandwidth at the ToR either way.
    assert split.downlink_ports * split.downlink_rate == pytest.approx(
        split.uplink_ports * split.uplink_rate
    )


def test_agg_role_symmetric():
    role = agg_role()
    assert role.downlink_ports == role.uplink_ports == 32


def test_fabric_pods_and_tors():
    fabric = make_fabric(n_nodes=128, nodes_per_pod=64, rails=8)
    assert fabric.n_pods == 2
    assert fabric.pod_of(0) == 0
    assert fabric.pod_of(64) == 1
    tors = {dst for src, dst in fabric.links if src.startswith("node")}
    assert len(tors) == 2 * 8


def test_nic_links_at_200g():
    fabric = make_fabric(n_nodes=64)
    link = fabric.links[("node0.nic0", "tor0.0")]
    assert link.bandwidth == pytest.approx(200 * Gbps)


def test_same_tor_within_pod():
    fabric = make_fabric(n_nodes=128)
    assert fabric.same_tor(0, 63)
    assert not fabric.same_tor(0, 64)


def test_hop_counts():
    fabric = make_fabric(n_nodes=128)
    assert fabric.hops(5, 5) == 0
    assert fabric.hops(0, 63) == 2  # same ToR set: nic->tor->nic
    assert fabric.hops(0, 64) == 6  # cross-pod through the spine


def test_intra_pod_path_structure():
    fabric = make_fabric(n_nodes=128)
    path = fabric.path(0, 1, rail=3, flow_id=42)
    assert len(path) == 2
    assert path[0].src == "node0.nic3"
    assert path[0].dst == "tor0.3"
    assert path[1].dst == "node1.nic3"


def test_cross_pod_path_structure():
    fabric = make_fabric(n_nodes=128)
    path = fabric.path(0, 100, rail=0, flow_id=7)
    assert len(path) == 6
    assert path[0].src == "node0.nic0"
    assert path[1].src == "tor0.0"
    assert path[2].src.startswith("agg0.")
    assert path[3].src.startswith("spine")
    assert path[4].src.startswith("agg1.")
    assert path[5].dst == "node100.nic0"


def test_path_is_deterministic_per_flow():
    fabric = make_fabric(n_nodes=128)
    p1 = fabric.path(0, 100, rail=0, flow_id=7)
    p2 = fabric.path(0, 100, rail=0, flow_id=7)
    assert [l.name for l in p1] == [l.name for l in p2]


def test_different_flows_spread_over_uplinks():
    fabric = make_fabric(n_nodes=128)
    chosen = {fabric.path(0, 100, rail=0, flow_id=f)[2].dst for f in range(64)}
    assert len(chosen) > 1  # multiple spines used


def test_path_validation():
    fabric = make_fabric(n_nodes=64)
    with pytest.raises(ValueError):
        fabric.path(0, 64, rail=0)
    with pytest.raises(ValueError):
        fabric.path(0, 1, rail=8)
    assert fabric.path(3, 3, rail=0) == []


def test_link_validation():
    with pytest.raises(ValueError):
        Link(src="a", dst="b", bandwidth=0)
    with pytest.raises(ValueError):
        Link(src="a", dst="b", bandwidth=1.0, latency=-1)
    link = Link(src="a", dst="b", bandwidth=1e9)
    link.carry(100.0)
    assert link.bytes_carried == 100.0
    with pytest.raises(ValueError):
        link.carry(-1.0)


def test_fabric_validation():
    with pytest.raises(ValueError):
        ClosFabric(n_nodes=0)
    # Each bad shape field is named when the fabric is built, not at the
    # first route that reaches it.
    for field, value in (
        ("aggs_per_pod", 0),
        ("n_spines", 0),
        ("tor_uplinks_per_agg", 0),
        ("agg_uplinks_per_spine", -1),
        ("nic_rate", -5.0),
        ("nic_rate", float("nan")),
    ):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            ClosFabric(n_nodes=8, nodes_per_pod=4, **{field: value})
    assert ClosFabric(n_nodes=8, nic_rate=0.0).nic_rate > 0  # 0 derives it
    from repro.collectives import fabric_collective_cost

    with pytest.raises(ValueError, match="^gpus_per_node must be at least 1"):
        fabric_collective_cost("all_gather", 1e9, range(8), make_fabric(8), gpus_per_node=0)


# -- lazy link graph -------------------------------------------------------------


def test_placement_queries_build_no_link_graph():
    fabric = make_fabric(n_nodes=128)
    assert fabric.same_tor(0, 63) and fabric.hops(0, 64) == 6
    assert fabric.nodes_in_pod(1)[0] == 64
    assert not fabric.degraded()
    assert "links" not in vars(fabric)
    assert len(fabric.links) > 0  # first read builds it


def test_unbuilt_fingerprint_equals_built_healthy_fingerprint():
    lazy, built = make_fabric(n_nodes=128), make_fabric(n_nodes=128)
    assert built.links
    assert lazy.fingerprint() == built.fingerprint()
    assert "links" not in vars(lazy)


def test_unbuilt_fabric_survives_pickling_then_builds_and_flaps():
    import pickle

    fabric = make_fabric(n_nodes=16, nodes_per_pod=8)
    clean = fabric.fingerprint()
    clone = pickle.loads(pickle.dumps(fabric))
    assert "links" not in vars(clone) and clone.fingerprint() == clean
    clone.set_link_state("tor0.0", "agg0.0", False)  # builds the link graph
    assert not clone.parallel_links[("tor0.0", "agg0.0")][0].up
    assert clone.degraded() and clone.fingerprint() != clean
    assert clone.path(0, 9, rail=0, flow_id=1)
    clone.set_link_state("tor0.0", "agg0.0", True)
    assert clone.fingerprint() == clean
    assert "links" not in vars(fabric)  # the original is untouched


def test_routing_avoids_links_set_down():
    fabric = make_fabric(n_nodes=16, nodes_per_pod=8)
    bundles = [("tor0.0", f"agg0.{a}") for a in range(fabric.aggs_per_pod)]
    for src, dst in bundles:
        for index in (0, 1, 2):
            fabric.set_link_state(src, dst, False, index=index)
    live = {fabric.parallel_links[bundle][3] for bundle in bundles}
    uplinks = {fabric.path(0, 9, rail=0, flow_id=f)[1] for f in range(32)}
    assert uplinks <= live  # ECMP spreads over the live links only
    for src, dst in bundles:
        fabric.set_link_state(src, dst, False, index=3)
    with pytest.raises(RuntimeError, match="no live link"):
        fabric.path(0, 9, rail=0)


# -- on-demand bundles -------------------------------------------------------------

# (src, dst, index) of one uplink taken down, or None for a healthy fabric.
DOWN_LINKS = [
    None,
    ("tor0.0", "agg0.0", 1),
    ("agg0.3", "spine2", 0),
    ("spine5", "agg1.4", 3),
    ("agg2.1", "tor2.0", 2),
]


@settings(max_examples=60, deadline=None)
@given(
    flows=st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 15), st.integers(0, 1023)),
        min_size=1,
        max_size=24,
    ),
    down=st.sampled_from(DOWN_LINKS),
    down_first=st.booleans(),
)
def test_on_demand_bundles_are_the_full_graphs_links(flows, down, down_first):
    """A route builds only the bundles it picks from, as the very Link
    objects the whole graph later holds, and prices bit for bit as the
    same route on a fabric whose whole graph was read first — with a link
    taken down before or after the first route."""
    from repro.collectives import PfcPenaltyModel, route_step
    from repro.collectives.fabric import RING_SOFTWARE_LATENCY
    from repro.network import Flow

    lazy, full = make_fabric(16, nodes_per_pod=4), make_fabric(16, nodes_per_pod=4)
    assert full.links

    def degrade(fabric):
        if down is not None:
            fabric.set_link_state(down[0], down[1], False, index=down[2])

    def route(fabric):
        return [fabric.path(src, dst, rail=0, flow_id=f) for src, dst, f in flows]

    def index(fabric, link):
        bundle = fabric.parallel_links[(link.src, link.dst)]
        return next(i for i, other in enumerate(bundle) if other is link)

    def price(paths):
        flows_ = [Flow(i, path, 25e9) for i, path in enumerate(paths) if path]
        return route_step(flows_, RING_SOFTWARE_LATENCY, 0.9, PfcPenaltyModel()).cost(1e8)

    if down_first:
        degrade(lazy)
        degrade(full)
    first = route(lazy)
    if not down_first:
        assert "links" not in vars(lazy)  # routing built bundles, not the graph
        degrade(lazy)
        degrade(full)
    lazy_paths, full_paths = route(lazy), route(full)

    for path in first:
        for link in path:
            index(lazy, link)  # the full graph holds this very object
    assert [[(l.src, l.dst, index(lazy, l)) for l in p] for p in lazy_paths] == [
        [(l.src, l.dst, index(full, l)) for l in p] for p in full_paths
    ]
    assert all(link.up for path in lazy_paths for link in path)
    if down is not None:
        assert not lazy.parallel_links[(down[0], down[1])][down[2]].up
    assert price(lazy_paths) == price(full_paths)
    assert lazy.fingerprint() == full.fingerprint()
