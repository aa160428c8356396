"""Unit tests for Node, NIC and Cluster."""

import pytest

from repro.hardware import (
    Cluster,
    Node,
    NodeSpec,
    NoSpareAvailable,
    UnknownNode,
    build_nodes,
)


def test_node_has_eight_gpus_and_nics_by_default():
    node = Node(spec=NodeSpec())
    assert len(node.gpus) == 8
    assert len(node.nics) == 8


def test_node_ids_unique():
    nodes = build_nodes(10)
    assert len({n.node_id for n in nodes}) == 10


def test_node_speed_factor_tracks_slowest_gpu():
    node = Node(spec=NodeSpec())
    node.gpus[3].degrade(0.9)
    assert node.speed_factor == pytest.approx(0.9)


def test_nic_degradation_marks_fault():
    node = Node(spec=NodeSpec())
    node.nics[0].degrade(0.5)
    assert node.nics[0].bandwidth_factor == 0.5 and node.nics[0].healthy
    node.nics[0].degrade(0.0)
    assert not node.nics[0].healthy


def test_cluster_build_and_gpu_count():
    cluster = Cluster.build(n_nodes=4, n_spares=2)
    assert len(cluster.nodes) == 4
    assert sum(len(n.gpus) for n in cluster.nodes) == 32
    assert len(cluster.spares) == 2


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
        cluster.evict(bad.node_id)
    assert cluster.nodes[1] is replacement


def test_build_nodes_validation():
    with pytest.raises(ValueError):
        build_nodes(0)
