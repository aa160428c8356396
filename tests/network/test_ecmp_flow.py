"""Tests for ECMP conflict analysis and max-min fair flow allocation."""

import hashlib
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.network import (
    Flow,
    Link,
    ecmp_choice,
    ecmp_choices,
    expected_conflict_stats,
    max_min_fair_rates,
    port_split_benefit,
)
from repro.network.ecmp import conflict_factor
from tests.oracles import ecmp as oracle


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
    s = expected_conflict_stats(1, n_uplinks=8, trials=1)
    assert s.max_load == 1
    assert s.mean_flow_throughput == 1.0
    assert s.conflict_probability == 0.0


def test_conflict_stats_forced_collision():
    # Two flows, one uplink: every id collides, a conflict at 1:1 rate ratio.
    s = expected_conflict_stats(2, n_uplinks=1, uplink_to_flow_rate=1.0, trials=1)
    assert s.max_load == 2
    assert s.mean_flow_throughput == pytest.approx(0.5)
    assert s.conflict_probability == 1.0


def test_port_splitting_absorbs_pairwise_conflicts():
    # With 2x uplink rate, a 2-flow collision is harmless.
    s = expected_conflict_stats(2, n_uplinks=1, uplink_to_flow_rate=2.0, trials=1)
    assert s.mean_flow_throughput == pytest.approx(1.0)
    assert s.conflict_probability == 0.0
    # Three flows on one 2x uplink still degrade.
    s3 = expected_conflict_stats(3, n_uplinks=1, uplink_to_flow_rate=2.0, trials=1)
    assert s3.mean_flow_throughput == pytest.approx(2 / 3)
    assert s3.conflict_probability == 1.0


@settings(max_examples=100, deadline=None)
@given(
    n_flows=st.integers(1, 300),
    n_uplinks=st.integers(1, 64),
    rate=st.one_of(
        st.sampled_from([0.5, 1.0, 2, 2.0, 3.0, math.inf]),
        st.floats(min_value=0.0, max_value=64.0, exclude_min=True),
    ),
    trials=st.integers(1, 60),
    seed=st.integers(0, 3),
)
# The analytic ring's call, and rows on both sides of numpy's 128-element
# pairwise-summation block.
@example(n_flows=64, n_uplinks=32, rate=2.0, trials=60, seed=0)
@example(n_flows=129, n_uplinks=8, rate=2.0, trials=13, seed=1)
@example(n_flows=257, n_uplinks=3, rate=3.0, trials=7, seed=2)
@example(n_flows=300, n_uplinks=1, rate=0.5, trials=2, seed=3)
def test_array_pass_equals_per_trial_loop(n_flows, n_uplinks, rate, trials, seed):
    """Every trial's row prices as the per-trial loop prices its buckets:
    the same loads, shares summed in the same order, the same four means."""
    assert expected_conflict_stats(n_flows, n_uplinks, rate, trials, seed) == oracle.expected_conflict_stats(
        n_flows, n_uplinks, rate, trials, seed
    )


@settings(max_examples=200, deadline=None)
@given(
    ids=st.lists(st.one_of(st.integers(-(2**70), 2**70), st.integers(2**63, 2**64 + 8)), max_size=40),
    src=st.text(max_size=8),
    dst=st.text(max_size=8),
    k=st.one_of(st.just(1), st.integers(1, 2**32 - 1)),
)
def test_ecmp_choices_equal_ecmp_choice(ids, src, dst, k):
    assert ecmp_choices(ids, src, dst, k).tolist() == [ecmp_choice(i, src, dst, k) for i in ids]


@pytest.mark.parametrize("k", [0, -1])
def test_ecmp_choices_reject_no_choice_as_ecmp_choice_does(k):
    with pytest.raises(ValueError) as array:
        ecmp_choices([1, 2], "tor", "agg", k)
    with pytest.raises(ValueError) as scalar:
        ecmp_choice(1, "tor", "agg", k)
    assert str(array.value) == str(scalar.value)


def test_conflict_factors_the_cost_model_reads_are_pinned():
    """The analytic ring's (64 rails on 32 uplinks), the §3.6 study's and
    the scheduler's factors, recorded before the array pass.  Computed
    past the memo, so a warm cache cannot hide a drift."""
    factor = conflict_factor.__wrapped__
    assert factor(64, 32, 100) == 0.73734375
    assert factor(48, 32, 100) == 0.8247916666666667
    scheduler = "\n".join(repr(factor(n, 8, 50)) for n in range(1, 65))
    assert (
        hashlib.sha256(scheduler.encode()).hexdigest()
        == "b55c56c469a3954fec8bb20f1159d230a7c9ba80d98d8b40042776a6b238a4cb"
    )


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
        expected_conflict_stats(4, 4, trials=0)


@pytest.mark.parametrize(
    "n_flows, n_uplinks, rate, field",
    [
        (4, 2, 0.0, "uplink_to_flow_rate"),
        (2, 1, -1.0, "uplink_to_flow_rate"),
        (4, 2, math.nan, "uplink_to_flow_rate"),
        (0, 2, 2.0, "n_flows"),
        (-1, 2, 2.0, "n_flows"),
        (4, 0, 2.0, "n_uplinks"),
        (4, -3, 2.0, "n_uplinks"),
    ],
)
def test_conflict_model_rejects_what_it_cannot_price(n_flows, n_uplinks, rate, field):
    """A rate or count the model cannot price raises one error naming
    the field, instead of a negative or conflict-free mean or a numpy
    failure."""
    with pytest.raises(ValueError, match=field):
        expected_conflict_stats(n_flows, n_uplinks, rate, trials=3)
    if field != "uplink_to_flow_rate":
        with pytest.raises(ValueError, match=field):
            conflict_factor(n_flows, n_uplinks, 3)
        with pytest.raises(ValueError, match=field):
            port_split_benefit(n_flows, n_uplinks, trials=3)


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
