"""Tests for the parallelism auto-tuner."""

import pytest

from repro.collectives import build_comm_model
from repro.hardware import AMPERE
from repro.model import GPT_13B, GPT_175B
from repro.parallel import ParallelPlan
from repro.parallel.search import search_plans
from repro.parallel.tuner import candidate_plans, feasible


def test_candidates_satisfy_structural_constraints():
    for plan in candidate_plans(GPT_175B, n_gpus=64):
        assert plan.world_size == 64
        assert GPT_175B.n_layers % (plan.pp * plan.vpp) == 0
        assert plan.tp in (1, 2, 4, 8)
        # TP stays on NVLink, within the host the comm model prices.
        assert build_comm_model(plan).node_spec.gpus_per_node % plan.tp == 0


def test_candidates_nonempty_for_paper_scales():
    assert any(True for _ in candidate_plans(GPT_175B, n_gpus=256))
    assert any(True for _ in candidate_plans(GPT_13B, n_gpus=8))


def test_candidate_validation():
    with pytest.raises(ValueError):
        list(candidate_plans(GPT_175B, n_gpus=0))


def test_feasible_rejects_oom_plans():
    # 175B on 8 GPUs with no model parallelism cannot fit.
    plan = ParallelPlan(dp=8, tp=1, pp=1)
    assert not feasible(GPT_175B, plan, AMPERE, global_batch=64)
    # The paper's config fits.
    paper = ParallelPlan(dp=4, tp=8, pp=8, vpp=6)
    assert feasible(GPT_175B, paper, AMPERE, global_batch=256)


def test_feasible_rejects_bad_batch_split():
    plan = ParallelPlan(dp=4, tp=8, pp=8, vpp=6)
    assert not feasible(GPT_175B, plan, AMPERE, global_batch=100)  # 25 not mult of 8
    assert not feasible(GPT_175B, plan, AMPERE, global_batch=30)  # not divisible


def test_tune_returns_ranked_feasible_plans():
    results = search_plans(GPT_175B, n_gpus=256, global_batch=256, top_k=3).top
    assert 1 <= len(results) <= 3
    mfus = [r.mfu for r in results]
    assert mfus == sorted(mfus, reverse=True)
    for r in results:
        assert feasible(GPT_175B, r.plan, AMPERE, 256)
        assert r.iteration_time > 0
        assert "MFU" in r.describe()


def test_tune_prefers_model_parallel_for_huge_models():
    results = search_plans(GPT_175B, n_gpus=256, global_batch=256, top_k=1).top
    best = results[0].plan
    # 175B needs real model-parallel sharding (plus ZeRO) to fit at all.
    assert best.tp * best.pp >= 8
    assert feasible(GPT_175B, best, AMPERE, 256)


def test_tune_small_model_avoids_excess_pipeline():
    results = search_plans(GPT_13B, n_gpus=16, global_batch=64, top_k=1).top
    best = results[0].plan
    # 13B fits with modest model parallelism; the tuner should not pick
    # an extreme pipeline depth.
    assert best.pp <= 8


def test_tune_validation():
    with pytest.raises(ValueError):
        search_plans(GPT_175B, n_gpus=256, global_batch=256, top_k=0)
    with pytest.raises(ValueError):
        # No feasible plan: 175B on a single GPU.
        search_plans(GPT_175B, n_gpus=1, global_batch=1)


# -- search-space knobs (max_micro_batch) --------------------------------------


def test_candidate_plans_respect_max_micro_batch():
    widened = {p.micro_batch for p in candidate_plans(GPT_13B, 16, max_micro_batch=4)}
    assert widened == {1, 2, 3, 4}
    default = {p.micro_batch for p in candidate_plans(GPT_13B, 16)}
    assert default == {1, 2}


def test_tune_plumbs_max_micro_batch_through():
    # Regression: the tuner used to call candidate_plans with hard-coded
    # defaults, silently ignoring wider micro-batch searches.
    results = search_plans(
        GPT_13B, n_gpus=16, global_batch=64, top_k=10, max_micro_batch=4
    ).top
    assert any(r.plan.micro_batch == 4 for r in results)
    narrow = search_plans(GPT_13B, n_gpus=16, global_batch=64, top_k=10).top
    assert all(r.plan.micro_batch <= 2 for r in narrow)


# -- search accounting ---------------------------------------------------------


def test_tune_with_stats_accounts_for_every_candidate():
    stats = search_plans(GPT_13B, n_gpus=16, global_batch=64, top_k=3).stats
    assert stats.enumerated >= stats.feasible > 0
    assert stats.bound_pruned + stats.evaluated == stats.feasible
    # Pruning must actually bite on this space.
    assert stats.evaluated < stats.feasible
    assert f"pruned: {stats.bound_pruned} by bound (" in stats.describe()


def test_tune_uncapped_by_default_no_warning():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        search_plans(GPT_13B, n_gpus=16, global_batch=64, top_k=3)


def test_tune_exhaustive_matches_pruned():
    pruned = search_plans(GPT_13B, n_gpus=16, global_batch=64, top_k=5).top
    brute = search_plans(GPT_13B, n_gpus=16, global_batch=64, top_k=5, exhaustive=True).top
    assert pruned == brute


# -- fabric cost backend -------------------------------------------------------


def test_tune_fabric_backend_end_to_end():
    results = search_plans(
        GPT_13B, n_gpus=16, global_batch=64, top_k=3, backend="fabric"
    ).top
    assert 1 <= len(results) <= 3
    assert all(r.iteration_time > 0 and 0 < r.mfu < 1 for r in results)
    # 16 GPUs = 2 nodes in one pod: the fabric price degenerates to the
    # analytic one, so the leaderboards must coincide — plans and times,
    # including dp=8 tp=1, whose DP ring never leaves one host.
    analytic = search_plans(GPT_13B, n_gpus=16, global_batch=64, top_k=3).top
    assert [r.plan for r in results] == [r.plan for r in analytic]
    assert [r.iteration_time for r in results] == pytest.approx(
        [r.iteration_time for r in analytic], rel=1e-15, abs=0.0
    )


def test_tune_rejects_unknown_backend():
    with pytest.raises(ValueError):
        search_plans(GPT_13B, n_gpus=16, global_batch=64, backend="exact")
