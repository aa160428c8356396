"""Tests for best-first branch-and-bound plan search: exactness,
admissibility, pruning."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.features import MEGASCALE_ISO_BATCH, MEGATRON_LM
from repro.exec import PersistentMemo
from repro.hardware import AMPERE
from repro.model import GPT_13B, GPT_175B, MODEL_CATALOG
from repro.observability import TelemetryHub
from repro.parallel import ParallelPlan
from repro.parallel.search import PP_LIMIT, canonical_key, plan_cache_key, search_plans
from repro.parallel.tuner import candidate_plans, evaluate_plan, feasible
from repro.training.iteration import IterationEngine
from tests.metrics import counter, gauge_series


# -- exactness: pruned search == exhaustive search ----------------------------

GRID = [
    (GPT_13B, 16, 64, MEGASCALE_ISO_BATCH),
    (GPT_13B, 32, 128, MEGASCALE_ISO_BATCH),
    (GPT_13B, 32, 128, MEGATRON_LM),
    (GPT_175B, 256, 256, MEGASCALE_ISO_BATCH),
    (GPT_175B, 256, 256, MEGATRON_LM),
]


@pytest.mark.parametrize("model,n_gpus,batch,features", GRID)
def test_pruned_topk_bit_identical_to_exhaustive(model, n_gpus, batch, features):
    """The headline guarantee: identical top-k with far fewer engine calls."""
    pruned = search_plans(model, n_gpus, batch, features=features, top_k=5)
    brute = search_plans(model, n_gpus, batch, features=features, top_k=5, exhaustive=True)
    assert pruned.top == brute.top  # bit-identical TunedPlan dataclasses
    assert brute.stats.evaluated == brute.stats.feasible
    assert pruned.stats.evaluated <= brute.stats.evaluated


@pytest.mark.parametrize("model,n_gpus,batch,features", GRID)
def test_search_accounting_is_complete(model, n_gpus, batch, features):
    """Every feasible candidate is pruned, priced, or cached — none vanish."""
    result = search_plans(model, n_gpus, batch, features=features, top_k=3)
    s = result.stats
    assert s.feasible <= s.enumerated
    assert s.bound_pruned + s.evaluated + s.persistent_hits == s.feasible
    assert s.evaluated < s.feasible  # pruning bites on every grid point
    assert 0.0 <= s.prune_rate <= 1.0
    assert "plan search" in s.describe()


def test_pruned_matches_exhaustive_across_top_k():
    for top_k in (1, 2, 5, 10):
        pruned = search_plans(GPT_13B, 16, 64, top_k=top_k)
        brute = search_plans(GPT_13B, 16, 64, top_k=top_k, exhaustive=True)
        assert pruned.top == brute.top
        assert len(pruned.top) == min(top_k, pruned.stats.feasible)


def test_search_parallel_matches_serial():
    serial = search_plans(GPT_13B, 16, 64, top_k=5, workers=0)
    parallel = search_plans(GPT_13B, 16, 64, top_k=5, workers=2)
    assert parallel.top == serial.top


@settings(max_examples=50, deadline=None)
@given(
    name=st.sampled_from(["gpt-7b", "gpt-13b", "gpt-30b", "gpt-175b"]),
    n_gpus=st.sampled_from([8, 16, 32, 64, 128]),
    batch=st.sampled_from([32, 64, 128, 256]),
    features=st.sampled_from([MEGASCALE_ISO_BATCH, MEGATRON_LM]),
    top_k=st.integers(1, 6),
    max_micro_batch=st.integers(1, 3),
)
def test_serial_search_never_prices_a_dominated_candidate(
    name, n_gpus, batch, features, top_k, max_micro_batch
):
    """A candidate with ``top_k`` feasible rivals whose upper bound lies
    below its lower bound cannot reach the top-k; the best-first ladder
    prices all such rivals first, so the serial search never prices it —
    and the pruned top-k is the exhaustive one."""
    model = MODEL_CATALOG[name]
    plans = sorted(
        (
            plan
            for plan in candidate_plans(model, n_gpus, max_micro_batch=max_micro_batch)
            if plan.pp <= PP_LIMIT and feasible(model, plan, AMPERE, batch)
        ),
        key=canonical_key,
    )
    if not plans:
        with pytest.raises(ValueError):
            search_plans(model, n_gpus, batch, max_micro_batch=max_micro_batch)
        return
    hub = TelemetryHub("search-property")
    pruned = search_plans(
        model, n_gpus, batch, features=features, top_k=top_k,
        max_micro_batch=max_micro_batch, hub=hub,
    )
    brute = search_plans(
        model, n_gpus, batch, features=features, top_k=top_k,
        max_micro_batch=max_micro_batch, exhaustive=True,
    )
    assert pruned.top == brute.top

    bounds = [IterationEngine(model, p, features).analytic_bounds(batch) for p in plans]
    priced = [
        span.attr("candidate")
        for span in hub.spans("exec")
        if span.name == "search:price"
    ]
    assert len(priced) == pruned.stats.evaluated
    for i in priced:
        certified = sum(
            1 for j, b in enumerate(bounds) if j != i and b.upper < bounds[i].lower
        )
        assert certified < top_k, (plans[i], certified)


# -- the acceptance bar: <= 50% of brute-force engine calls at 1024 GPUs ------


def test_1024_gpu_search_prunes_majority_of_engine_calls(monkeypatch):
    """At scale, pruned search performs <= 50% of brute-force simulate calls."""
    calls = {"n": 0}
    real_simulate = IterationEngine.simulate

    def counting_simulate(self, *args, **kwargs):
        calls["n"] += 1
        return real_simulate(self, *args, **kwargs)

    monkeypatch.setattr(IterationEngine, "simulate", counting_simulate)

    pruned = search_plans(GPT_175B, 1024, 768, top_k=5)
    pruned_calls = calls["n"]
    assert pruned_calls == pruned.stats.evaluated

    calls["n"] = 0
    brute = search_plans(GPT_175B, 1024, 768, top_k=5, exhaustive=True)
    brute_calls = calls["n"]
    assert brute_calls == pruned.stats.brute_force_evaluations == brute.stats.feasible

    assert pruned.top == brute.top  # identical top-k...
    assert pruned_calls <= 0.5 * brute_calls  # ...at <= half the engine work


# -- admissibility: lower <= exact <= upper -----------------------------------


@pytest.mark.parametrize("model,n_gpus,batch,features", GRID)
def test_bounds_bracket_exact_engine_time(model, n_gpus, batch, features):
    plans = [
        p
        for p in candidate_plans(model, n_gpus)
        if feasible(model, p, AMPERE, batch)
    ]
    assert plans
    for plan in plans:
        bounds = IterationEngine(model, plan, features).analytic_bounds(batch)
        exact = evaluate_plan(plan, model, features, AMPERE, batch).iteration_time
        assert bounds.lower <= exact + 1e-9, f"inadmissible lower bound for {plan}"
        assert exact <= bounds.upper + 1e-9, f"upper bound below exact for {plan}"
        assert bounds.lower <= bounds.upper


def test_analytic_bounds_validate_inputs():
    engine = IterationEngine(GPT_13B, ParallelPlan(dp=4, tp=2, pp=2), MEGASCALE_ISO_BATCH)
    bounds = engine.analytic_bounds(64)
    assert 0 < bounds.compute_floor <= bounds.lower <= bounds.upper


# -- canonical order ----------------------------------------------------------


def test_canonical_key_orders_small_model_parallel_first():
    small = ParallelPlan(dp=8, tp=2, pp=1)
    large = ParallelPlan(dp=1, tp=8, pp=2)
    assert canonical_key(small) < canonical_key(large)


def test_search_validation():
    with pytest.raises(ValueError):
        search_plans(GPT_13B, 16, 64, top_k=0)
    with pytest.raises(ValueError):
        search_plans(GPT_175B, 1, 1)  # no feasible plan


# -- persistent cross-run cache -----------------------------------------------


def test_persistent_cache_skips_engine_on_second_run(tmp_path):
    path = str(tmp_path / "plans.pkl")
    with PersistentMemo(path) as memo:
        first = search_plans(GPT_13B, 16, 64, top_k=5, cache=memo)
    assert first.stats.evaluated > 0
    assert first.stats.persistent_hits == 0

    with PersistentMemo(path) as memo:
        second = search_plans(GPT_13B, 16, 64, top_k=5, cache=memo)
    assert second.top == first.top
    assert second.stats.evaluated == 0  # every pricing answered from disk
    assert second.stats.persistent_hits == first.stats.evaluated


def test_plan_cache_key_distinguishes_contexts():
    plan = ParallelPlan(dp=8, tp=2, pp=1)
    base = plan_cache_key(GPT_13B, plan, MEGASCALE_ISO_BATCH, AMPERE, 64)
    assert base == plan_cache_key(GPT_13B, plan, MEGASCALE_ISO_BATCH, AMPERE, 64)
    assert base != plan_cache_key(GPT_13B, plan, MEGASCALE_ISO_BATCH, AMPERE, 128)
    assert base != plan_cache_key(GPT_13B, plan, MEGATRON_LM, AMPERE, 64)
    assert base != plan_cache_key(
        GPT_13B, plan.with_options(micro_batch=2), MEGASCALE_ISO_BATCH, AMPERE, 64
    )


# -- telemetry ----------------------------------------------------------------


def test_search_emits_counters_spans_and_incumbent_trajectory():
    hub = TelemetryHub("search-test")
    result = search_plans(GPT_13B, 16, 64, top_k=3, hub=hub)
    s = result.stats

    m = hub.metrics
    assert counter(m, "exec.search_enumerated") == s.enumerated
    assert counter(m, "exec.search_feasible") == s.feasible
    assert counter(m, "exec.search_bound_pruned") == s.bound_pruned
    assert counter(m, "exec.search_evaluated") == s.evaluated

    names = [
        r["name"] for r in m.records()
        if r["kind"] == "counter" and r["name"].startswith("exec.search_")
    ]
    assert "exec.search_enumerated" in names and "exec.search_evaluated" in names

    spans = hub.spans("exec")
    stage_names = {sp.name for sp in spans}
    assert {"search:screen", "search:bound", "search:rank"} <= stage_names
    assert sum(1 for sp in spans if sp.name == "search:price") == s.priced

    assert s.incumbent  # the frontier moved at least once
    best_series = gauge_series(m, "exec.search_incumbent_best", rank=0)
    assert len(best_series) == len(s.incumbent)
    # The incumbent best only ever improves.
    bests = [b for _, b, _ in s.incumbent]
    assert bests == sorted(bests, reverse=True)
