"""Tests for the alpha-beta collective cost models."""

import pytest

from repro.collectives import (
    all_to_all,
    point_to_point,
    ring_all_gather,
    ring_all_reduce,
    ring_reduce_scatter,
    tree_broadcast,
)


BW = 25e9  # 200 Gbps in bytes/s


def test_all_reduce_closed_form():
    # 2(n-1)/n * size / bw with zero latency.
    t = ring_all_reduce(1e9, n_ranks=4, bandwidth=BW)
    assert t == pytest.approx(2 * 3 / 4 * 1e9 / BW)


def test_all_gather_equals_reduce_scatter():
    args = (2e9, 8, BW, 5e-6)
    assert ring_all_gather(*args) == pytest.approx(ring_reduce_scatter(*args))


def test_all_reduce_equals_rs_plus_ag():
    # The ZeRO decomposition preserves total cost (Figure 1 discussion).
    size, n = 1e9, 16
    ar = ring_all_reduce(size, n, BW)
    assert ar == pytest.approx(ring_all_gather(size, n, BW) + ring_reduce_scatter(size, n, BW))


def test_single_rank_collectives_free():
    for fn in (ring_all_reduce, ring_all_gather, ring_reduce_scatter, all_to_all, tree_broadcast):
        assert fn(1e9, 1, BW) == 0.0


def test_zero_size_free():
    assert ring_all_reduce(0.0, 8, BW) == 0.0


def test_latency_term_scales_with_steps():
    lat = 1e-5
    with_lat = ring_all_gather(1e6, 8, BW, lat)
    without = ring_all_gather(1e6, 8, BW, 0.0)
    assert with_lat - without == pytest.approx(7 * lat)


def test_broadcast_log_depth():
    lat = 0.0
    t8 = tree_broadcast(1e9, 8, BW, lat)
    t64 = tree_broadcast(1e9, 64, BW, lat)
    assert t64 == pytest.approx(2 * t8)  # log2(64)=6 vs log2(8)=3


def test_all_to_all_cost():
    t = all_to_all(1e9, 4, BW)
    assert t == pytest.approx(1e9 * 3 / 4 / BW)


def test_point_to_point():
    assert point_to_point(1e9, BW, 1e-5) == pytest.approx(1e9 / BW + 1e-5)


def test_bandwidth_scaling():
    slow = ring_all_reduce(1e9, 8, BW / 2)
    fast = ring_all_reduce(1e9, 8, BW)
    assert slow == pytest.approx(2 * fast)


def test_validation():
    with pytest.raises(ValueError):
        ring_all_reduce(-1, 8, BW)
    with pytest.raises(ValueError):
        ring_all_reduce(1e9, 0, BW)
    with pytest.raises(ValueError):
        ring_all_reduce(1e9, 8, 0.0)
    with pytest.raises(ValueError):
        ring_all_reduce(1e9, 8, BW, -1e-6)
