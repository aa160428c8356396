"""Tests for the 3D parallel plan and rank mapping."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.parallel import ParallelPlan, plan_for_gpus


def make_plan(**kw):
    defaults = dict(dp=4, tp=8, pp=8, vpp=6, micro_batch=1)
    defaults.update(kw)
    return ParallelPlan(**defaults)


def test_world_size():
    assert make_plan().world_size == 256


def test_coords_round_trip():
    plan = make_plan()
    for rank in range(plan.world_size):
        p, d, t = plan.coords(rank)
        assert plan.rank_of(p, d, t) == rank


def test_tp_varies_fastest():
    plan = make_plan()
    # Ranks 0..7 form the first TP group.
    assert plan.tp_group(0) == list(range(8))
    assert plan.tp_group(3) == list(range(8))


def test_dp_before_pp_keeps_dp_groups_contiguous():
    plan = make_plan()
    # With dp-before-pp, DP peers of rank 0 are tp-stride apart (nearby),
    # spanning only dp*tp = 32 ranks.
    group = plan.dp_group(0)
    assert list(group) == [0, 8, 16, 24]
    assert max(group) - min(group) == (plan.dp - 1) * plan.tp


def test_pp_last_means_pp_groups_far_apart():
    plan = make_plan()
    group = [plan.rank_of(p, 0, 0) for p in range(plan.pp)]
    assert group == [0, 32, 64, 96, 128, 160, 192, 224]


def test_legacy_pp_before_dp_order():
    plan = make_plan(dp_before_pp=False)
    assert [plan.rank_of(p, 0, 0) for p in range(plan.pp)] == [0, 8, 16, 24, 32, 40, 48, 56]
    assert list(plan.dp_group(0)) == [0, 64, 128, 192]


@given(
    dp=st.integers(1, 12), tp=st.integers(1, 8), pp=st.integers(1, 6), dp_before_pp=st.booleans()
)
def test_dp_group_range_lists_every_dp_rank(dp, tp, pp, dp_before_pp):
    plan = ParallelPlan(dp=dp, tp=tp, pp=pp, dp_before_pp=dp_before_pp)
    for rank in range(plan.world_size):
        pp_rank, _, tp_rank = plan.coords(rank)
        expected = [plan.rank_of(pp_rank, d, tp_rank) for d in range(dp)]
        assert list(plan.dp_group(rank)) == expected


def test_groups_partition_world():
    plan = make_plan()
    ranks = range(plan.world_size)
    pp_groups = {
        tuple(plan.rank_of(p, d, t) for p in range(plan.pp))
        for d in range(plan.dp)
        for t in range(plan.tp)
    }
    tp_groups = {tuple(plan.tp_group(r)) for r in ranks}
    dp_groups = {tuple(plan.dp_group(r)) for r in ranks}
    for groups in (tp_groups, dp_groups, pp_groups):
        seen = sorted(r for g in groups for r in g)
        assert seen == list(range(plan.world_size))


def test_pipeline_neighbours_wrap():
    plan = make_plan()
    first = plan.rank_of(0, 0, 0)
    last = plan.rank_of(plan.pp - 1, 0, 0)
    assert plan.prev_pp_rank(first) == last
    assert plan.next_pp_rank(last) == first


def test_n_microbatches():
    plan = make_plan()
    assert plan.n_microbatches(256) == 64
    assert plan.n_microbatches(768) == 192
    with pytest.raises(ValueError):
        plan.n_microbatches(257)


def test_layers_per_chunk():
    plan = make_plan()
    assert plan.layers_per_chunk(96) == 2
    with pytest.raises(ValueError):
        plan.layers_per_chunk(100)


def test_plan_for_gpus():
    plan = plan_for_gpus(12288, tp=8, pp=8, vpp=6)
    assert plan.dp == 192
    assert plan.world_size == 12288
    with pytest.raises(ValueError):
        plan_for_gpus(100, tp=8, pp=8)


def test_plan_validation():
    with pytest.raises(ValueError):
        ParallelPlan(dp=0, tp=1, pp=1)
    with pytest.raises(ValueError):
        ParallelPlan(dp=1, tp=1, pp=1, zero_stage=5)
    plan = make_plan()
    with pytest.raises(ValueError):
        plan.coords(plan.world_size)
    with pytest.raises(ValueError):
        plan.rank_of(plan.pp, 0, 0)


def test_with_options():
    plan = make_plan().with_options(dp=8)
    assert plan.dp == 8
    assert plan.tp == 8


def test_describe_mentions_dimensions():
    text = make_plan().describe()
    assert "dp=4" in text and "tp=8" in text and "pp=8" in text
