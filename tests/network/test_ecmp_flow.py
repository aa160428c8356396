"""Tests for ECMP conflict analysis and max-min fair flow allocation."""

import pytest

from repro.network import (
    Flow,
    Link,
    conflict_stats,
    ecmp_choice,
    expected_conflict_stats,
    max_min_fair_rates,
    port_split_benefit,
)


def test_ecmp_choice_stable_and_in_range():
    for fid in range(100):
        c = ecmp_choice(fid, "tor0", "agg0", 8)
        assert 0 <= c < 8
        assert c == ecmp_choice(fid, "tor0", "agg0", 8)
    assert ecmp_choice(5, "a", "b", 1) == 0
    with pytest.raises(ValueError):
        ecmp_choice(0, "a", "b", 0)


def test_ecmp_spreads_flows():
    choices = {ecmp_choice(f, "tor0", "agg0", 16) for f in range(200)}
    assert len(choices) == 16


def test_conflict_stats_single_flow_clean():
    s = conflict_stats([123], n_uplinks=8)
    assert s.mean_flow_throughput == 1.0
    assert s.conflict_probability == 0.0


def test_conflict_stats_forced_collision():
    # Two flows, one uplink: guaranteed conflict at 1:1 rate ratio.
    s = conflict_stats([1, 2], n_uplinks=1, uplink_to_flow_rate=1.0)
    assert s.max_load == 2
    assert s.mean_flow_throughput == pytest.approx(0.5)
    assert s.conflict_probability == 1.0


def test_port_splitting_absorbs_pairwise_conflicts():
    # With 2x uplink rate, a 2-flow collision is harmless.
    s = conflict_stats([1, 2], n_uplinks=1, uplink_to_flow_rate=2.0)
    assert s.mean_flow_throughput == pytest.approx(1.0)
    assert s.conflict_probability == 0.0
    # Three flows on one 2x uplink still degrade.
    s3 = conflict_stats([1, 2, 3], n_uplinks=1, uplink_to_flow_rate=2.0)
    assert s3.mean_flow_throughput == pytest.approx(2 / 3)


def test_expected_conflicts_grow_with_flows():
    few = expected_conflict_stats(n_flows=4, n_uplinks=32, trials=50)
    many = expected_conflict_stats(n_flows=32, n_uplinks=32, trials=50)
    assert many.conflict_probability > few.conflict_probability
    assert many.mean_flow_throughput < few.mean_flow_throughput


def test_port_split_benefit_exceeds_one():
    # §3.6: splitting measurably improves expected throughput under load.
    benefit = port_split_benefit(n_flows=32, n_uplinks=32, trials=100)
    assert benefit > 1.05


def test_validation_errors():
    with pytest.raises(ValueError):
        conflict_stats([], 4)
    with pytest.raises(ValueError):
        expected_conflict_stats(4, 4, trials=0)


def _links(n, bw):
    return [Link(src=f"s{i}", dst=f"d{i}", bandwidth=bw) for i in range(n)]


def test_max_min_single_bottleneck_shared_equally():
    shared = Link(src="a", dst="b", bandwidth=10e9)
    flows = [Flow(flow_id=i, path=[shared]) for i in range(4)]
    rates = max_min_fair_rates(flows)
    for i in range(4):
        assert rates[i] == pytest.approx(2.5e9)


def test_max_min_respects_demand_limits():
    shared = Link(src="a", dst="b", bandwidth=10e9)
    flows = [
        Flow(flow_id=0, path=[shared], demand=1e9),
        Flow(flow_id=1, path=[shared]),
    ]
    rates = max_min_fair_rates(flows)
    assert rates[0] == pytest.approx(1e9)
    assert rates[1] == pytest.approx(9e9)


def test_max_min_multi_bottleneck():
    narrow = Link(src="a", dst="b", bandwidth=2e9)
    wide = Link(src="b", dst="c", bandwidth=10e9)
    constrained = Flow(flow_id=0, path=[narrow, wide])
    free = Flow(flow_id=1, path=[wide])
    rates = max_min_fair_rates([constrained, free])
    assert rates[0] == pytest.approx(2e9)
    assert rates[1] == pytest.approx(8e9)


def test_empty_path_flow_gets_demand():
    f = Flow(flow_id=0, path=[], demand=5e9)
    max_min_fair_rates([f])
    assert f.rate == pytest.approx(5e9)


def test_flow_over_down_link_raises():
    dead = Link(src="a", dst="b", bandwidth=1e9, up=False)
    with pytest.raises(RuntimeError):
        max_min_fair_rates([Flow(flow_id=0, path=[dead])])


def test_flow_demand_validation():
    with pytest.raises(ValueError):
        Flow(flow_id=0, path=[], demand=0)
