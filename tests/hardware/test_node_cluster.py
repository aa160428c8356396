"""Unit tests for Node, NIC and Cluster."""

import pytest

from repro.hardware import (
    CX6_200G,
    Cluster,
    Nic,
    Node,
    NodeSpec,
    NoSpareAvailable,
    UnknownNode,
    build_nodes,
)


def test_node_has_eight_gpus_and_nics_by_default():
    node = Node(spec=NodeSpec())
    assert node.n_gpus == 8
    assert len(node.nics) == 8


def test_node_ids_unique():
    nodes = build_nodes(10)
    assert len({n.node_id for n in nodes}) == 10


def test_node_speed_factor_tracks_slowest_gpu():
    node = Node(spec=NodeSpec())
    node.gpus[3].degrade(0.9)
    assert node.speed_factor == pytest.approx(0.9)
    assert node.has_fault()


def test_fresh_node_has_no_fault():
    assert not Node(spec=NodeSpec()).has_fault()


def test_nic_degradation_marks_fault():
    node = Node(spec=NodeSpec())
    node.nics[0].degrade(0.5)
    assert node.has_fault()
    node.nics[0].degrade(0.0)
    assert not node.nics[0].healthy


def test_nic_traffic_counters():
    nic = Nic(spec=CX6_200G, index=0)
    nic.record_tx(0.0, 1000.0)
    nic.record_rx(0.0, 500.0)
    assert nic.tx_bytes.value == 1000.0
    assert nic.rx_bytes.value == 500.0


def test_cluster_build_and_gpu_count():
    cluster = Cluster.build(n_nodes=4, n_spares=2)
    assert len(cluster) == 4
    assert cluster.n_gpus == 32
    assert len(cluster.spares) == 2


def test_cluster_rank_mapping():
    cluster = Cluster.build(n_nodes=4)
    assert cluster.node_of_rank(0) is cluster.nodes[0]
    assert cluster.node_of_rank(8) is cluster.nodes[1]
    assert cluster.gpu_of_rank(9).index == 1
    with pytest.raises(IndexError):
        cluster.node_of_rank(32)


def test_cluster_eviction_replaces_from_spares():
    cluster = Cluster.build(n_nodes=3, n_spares=1)
    bad = cluster.nodes[1]
    replacement = cluster.evict(bad.node_id)
    assert bad.evicted
    assert cluster.nodes[1] is replacement
    assert not cluster.spares


def test_cluster_eviction_without_spares_raises():
    cluster = Cluster.build(n_nodes=2)
    with pytest.raises(NoSpareAvailable):
        cluster.evict(cluster.nodes[0].node_id)


def test_cluster_eviction_of_unknown_node_raises():
    cluster = Cluster.build(n_nodes=2, n_spares=1)
    with pytest.raises(UnknownNode):
        cluster.evict(999_999_999)


def test_spare_exhaustion_and_unknown_node_are_distinct_exceptions():
    """The scheduler retries on exhaustion but must not mask stale-id bugs."""
    cluster = Cluster.build(n_nodes=2)
    with pytest.raises(NoSpareAvailable):
        cluster.evict(cluster.nodes[0].node_id)
    with pytest.raises(UnknownNode):
        cluster.evict(123_456_789)
    # Both stay catchable as LookupError for legacy callers.
    assert issubclass(NoSpareAvailable, LookupError)
    assert issubclass(UnknownNode, LookupError)
    assert not issubclass(NoSpareAvailable, UnknownNode)
    assert not issubclass(UnknownNode, NoSpareAvailable)


def test_evicted_node_no_longer_resolvable():
    """Regression: evict used to leave the dead node in the _by_id index."""
    cluster = Cluster.build(n_nodes=3, n_spares=1)
    bad = cluster.nodes[1]
    replacement = cluster.evict(bad.node_id)
    with pytest.raises(UnknownNode):
        cluster.node(bad.node_id)
    assert cluster.node(replacement.node_id) is replacement


def test_node_of_rank_after_remove_repacks_and_bounds_check():
    """Ranks pack over the active list: on a smaller (shrunk) list rank 8
    lands on the second survivor, and ranks past the GPU count raise
    instead of aliasing."""
    first, _, survivor, last = build_nodes(4)
    cluster = Cluster(nodes=[first, survivor, last])
    # 3 nodes x 8 GPUs: rank 8 belongs to the packed survivor.
    assert cluster.n_gpus == 24
    assert cluster.node_of_rank(8) is survivor
    with pytest.raises(IndexError):
        cluster.node_of_rank(24)
    with pytest.raises(IndexError):
        cluster.node_of_rank(-1)


def test_node_of_rank_on_empty_cluster_raises_index_error():
    cluster = Cluster(nodes=[])
    with pytest.raises(IndexError):
        cluster.node_of_rank(0)


def test_faulty_nodes_listing():
    cluster = Cluster.build(n_nodes=5)
    cluster.nodes[2].set_speed_factor(0.88)
    cluster.nodes[4].nics[1].degrade(0.3)
    faulty = cluster.faulty_nodes()
    assert cluster.nodes[2] in faulty
    assert cluster.nodes[4] in faulty
    assert len(faulty) == 2
    assert cluster.slowest_speed_factor() == pytest.approx(0.88)


def test_build_nodes_validation():
    with pytest.raises(ValueError):
        build_nodes(0)
