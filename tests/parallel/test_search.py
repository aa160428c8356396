"""Tests for best-first branch-and-bound plan search: exactness,
admissibility, pruning."""

import math
import os
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calibration import CalibratedProfile, default_fixture_dir
from repro.collectives import GroupCommModel
from repro.core.features import MEGASCALE_ISO_BATCH, MEGATRON_LM
from repro.exec import PersistentMemo
from repro.exec.memo import clear_caches
from repro.network import ClosFabric
from repro.hardware import AMPERE
from repro.model import GPT_13B, GPT_175B, MODEL_CATALOG
from repro.observability import TelemetryHub
from repro.parallel import ParallelPlan
from repro.parallel.search import (
    PP_LIMIT,
    PRUNE_SLACK,
    _Incumbent,
    canonical_key,
    plan_cache_key,
    search_plans,
)
from repro.parallel.tuner import candidate_plans, feasible
from repro.training.iteration import IterationEngine
from tests.metrics import counter, gauge_series
from tests.oracles import search as search_oracle
from tests.oracles.bounds import upper_bound

PROFILE_PATH = os.path.join(default_fixture_dir(), "profile.json")


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
    """A candidate with ``top_k`` feasible rivals whose upper bound (the
    test oracle's) lies below its lower bound cannot reach the top-k; the
    best-first ladder prices all such rivals first, so the search never
    prices it — and the pruned top-k is the exhaustive one."""
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

    engines = [IterationEngine(model, p, features) for p in plans]
    lower = [engine.analytic_bounds(batch) for engine in engines]
    upper = [upper_bound(engine, batch) for engine in engines]
    priced = [
        span.attr("candidate")
        for span in hub.spans("exec")
        if span.name == "search:price"
    ]
    assert len(priced) == pruned.stats.evaluated
    for i in priced:
        certified = sum(1 for j, u in enumerate(upper) if j != i and u < lower[i])
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
    assert brute_calls == brute.stats.feasible

    assert pruned.top == brute.top  # identical top-k...
    assert pruned_calls <= 0.5 * brute_calls  # ...at <= half the engine work


@pytest.mark.parametrize("backend", ["analytic", "fabric"])
def test_search_builds_one_engine_per_feasible_candidate(backend, monkeypatch):
    """The engine that floors a candidate also prices it: one build per
    feasible candidate, one ``simulate`` per candidate priced."""
    calls = {"init": 0, "simulate": 0}
    real_init, real_simulate = IterationEngine.__init__, IterationEngine.simulate

    def counting_init(self, *args, **kwargs):
        calls["init"] += 1
        real_init(self, *args, **kwargs)

    def counting_simulate(self, *args, **kwargs):
        calls["simulate"] += 1
        return real_simulate(self, *args, **kwargs)

    monkeypatch.setattr(IterationEngine, "__init__", counting_init)
    monkeypatch.setattr(IterationEngine, "simulate", counting_simulate)
    stats = search_plans(GPT_175B, 1024, 768, top_k=5, backend=backend).stats
    assert stats.evaluated > 0
    assert (calls["init"], calls["simulate"]) == (stats.feasible, stats.evaluated)


@pytest.mark.parametrize("backend", ["analytic", "fabric"])
def test_search_prices_a_dp_phase_once_per_full_floor_on_the_analytic_backend(
    backend, monkeypatch
):
    """The analytic bound prices the DP phase exactly, and ``simulate``
    reuses it: one ``_dp_phase_times`` call per full floor.  The fabric
    bound floors that phase, so there ``simulate`` prices it again."""
    calls = {"bounds": 0, "dp_phase": 0}
    real_bounds, real_phase = IterationEngine.analytic_bounds, IterationEngine._dp_phase_times

    def counting_bounds(self, global_batch):
        calls["bounds"] += 1
        return real_bounds(self, global_batch)

    def counting_phase(self, *args, **kwargs):
        calls["dp_phase"] += 1
        return real_phase(self, *args, **kwargs)

    monkeypatch.setattr(IterationEngine, "analytic_bounds", counting_bounds)
    monkeypatch.setattr(IterationEngine, "_dp_phase_times", counting_phase)
    stats = search_plans(GPT_175B, 1024, 768, top_k=5, backend=backend).stats
    assert stats.evaluated > 0
    repriced = stats.evaluated if backend == "fabric" else 0
    assert calls["dp_phase"] == calls["bounds"] + repriced


# -- the ladder ---------------------------------------------------------------

# (model, GPUs, batch, features, top_k, feasible, evaluated per backend).
LADDER = [
    ("gpt-175b", 1024, 768, MEGASCALE_ISO_BATCH, 5, 79, {"analytic": 10, "fabric": 10}),
    ("gpt-175b", 3072, 6144, MEGATRON_LM, 3, 196, {"analytic": 17, "fabric": 19}),
    ("gpt-175b", 12288, 6144, MEGASCALE_ISO_BATCH, 5, 181, {"analytic": 16, "fabric": 10}),
    ("gpt-530b", 2240, 2240, MEGATRON_LM, 3, 21, {"analytic": 6, "fabric": 6}),
]
# Full floors (``analytic_bounds`` calls) each LADDER search computes.
RESOLVED = {
    ("gpt-175b", 1024): {"analytic": 31, "fabric": 31},
    ("gpt-175b", 3072): {"analytic": 77, "fabric": 77},
    ("gpt-175b", 12288): {"analytic": 63, "fabric": 52},
    ("gpt-530b", 2240): {"analytic": 11, "fabric": 11},
}


@pytest.mark.parametrize("backend", ["analytic", "fabric"])
@pytest.mark.parametrize("name,n_gpus,batch,features,top_k,n_feasible,evaluated", LADDER)
def test_ladder_prices_pinned_candidate_counts(
    name, n_gpus, batch, features, top_k, n_feasible, evaluated, backend, monkeypatch
):
    """The lower bound orders the ladder, and the ladder decides how many
    candidates the search prices.  A bound change that keeps every
    leaderboard exact but reorders the ladder moves these counts; so does
    a ladder that floors more candidates in full than reach its front."""
    calls = {"n": 0}
    real_bounds = IterationEngine.analytic_bounds

    def counting_bounds(self, global_batch):
        calls["n"] += 1
        return real_bounds(self, global_batch)

    monkeypatch.setattr(IterationEngine, "analytic_bounds", counting_bounds)
    stats = search_plans(
        MODEL_CATALOG[name], n_gpus, batch, features=features, top_k=top_k, backend=backend
    ).stats
    assert (stats.feasible, stats.evaluated) == (n_feasible, evaluated[backend])
    assert calls["n"] == RESOLVED[name, n_gpus][backend]


# -- the lazy ladder prices as the eager one ----------------------------------


def _searched(search, model, n_gpus, batch, **kwargs):
    """(leaderboard, stats, the plans priced with their prices, in order)
    of one search; the error message of a query with no feasible plan
    instead."""
    order = []
    real_simulate = IterationEngine.simulate

    def recording_simulate(self, global_batch):
        outcome = real_simulate(self, global_batch)
        order.append((repr(self.plan), outcome.iteration_time, outcome.mfu))
        return outcome

    try:
        with mock.patch.object(IterationEngine, "simulate", recording_simulate):
            result = search(model, n_gpus, batch, **kwargs)
    except ValueError as exc:
        return str(exc)
    s = result.stats
    board = [(repr(t.plan), t.iteration_time, t.mfu) for t in result.top]
    return board, (s.enumerated, s.feasible, s.bound_pruned, s.evaluated, s.incumbent), order


def _assert_lazy_equals_eager(*query, **kwargs):
    """The search prices each candidate with the engine that floored it,
    the oracle with a fresh one: the same plans, order and prices."""
    lazy = _searched(search_plans, *query, **kwargs)
    eager = _searched(search_oracle.eager_search_plans, *query, **kwargs)
    assert lazy == eager


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    backend=st.sampled_from(["analytic", "fabric"]),
    name=st.sampled_from(sorted(MODEL_CATALOG)),
    batch_per_gpu=st.sampled_from([0.5, 1, 2]),
    features=st.sampled_from([MEGASCALE_ISO_BATCH, MEGATRON_LM]),
    top_k=st.integers(1, 6),
    exhaustive=st.booleans(),
)
def test_lazy_ladder_prices_as_the_eager_ladder(
    data, backend, name, batch_per_gpu, features, top_k, exhaustive
):
    """Floored in full only at the front, the ladder prices the candidates
    the eager one does, in its order: the same leaderboard, accounting and
    incumbent trajectory, on both backends, pruned and exhaustive."""
    sizes = [8, 16, 32, 64, 128, 256, 512, 768, 1024]
    if backend == "analytic":
        sizes += [2048, 3072]
    n_gpus = data.draw(st.sampled_from(sizes), label="n_gpus")
    _assert_lazy_equals_eager(
        MODEL_CATALOG[name], n_gpus, int(n_gpus * batch_per_gpu), features=features,
        top_k=top_k, exhaustive=exhaustive, backend=backend,
    )


@pytest.mark.parametrize("backend", ["analytic", "fabric"])
@pytest.mark.parametrize(
    "name,n_gpus,batch,kwargs",
    [
        ("gpt-175b", 12288, 6144, {"top_k": 5}),
        ("gpt-175b", 1024, 768, {"top_k": 5}),
        ("gpt-13b", 64, 128, {"top_k": 3, "features": MEGATRON_LM}),
    ],
    ids=["pinned-12288", "workers-2", "workers-2-megatron"],
)
def test_lazy_ladder_equals_the_eager_ladder_on_pinned_queries(
    name, n_gpus, batch, kwargs, backend
):
    """The paper-scale query and two smaller ones."""
    _assert_lazy_equals_eager(MODEL_CATALOG[name], n_gpus, batch, backend=backend, **kwargs)


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
        engine = IterationEngine(model, plan, features)
        lower, upper = engine.analytic_bounds(batch), upper_bound(engine, batch)
        exact = engine.simulate(batch).iteration_time
        assert lower <= exact + 1e-9, f"inadmissible lower bound for {plan}"
        assert exact <= upper + 1e-9, f"upper bound below exact for {plan}"
        assert lower <= upper


@settings(max_examples=30, deadline=None)
@given(
    backend=st.sampled_from(["analytic", "fabric"]),
    name=st.sampled_from(sorted(MODEL_CATALOG)),
    n_gpus=st.sampled_from([8, 16, 64, 256, 1024, 2048, 3072, 6144, 12288]),
    batch_per_gpu=st.sampled_from([0.5, 1, 2]),
    features=st.sampled_from([MEGASCALE_ISO_BATCH, MEGATRON_LM]),
    calibrated=st.booleans(),
)
def test_comm_free_floor_never_exceeds_the_full_floor(
    backend, name, n_gpus, batch_per_gpu, features, calibrated
):
    """The lazy ladder's order is exact only if no candidate's comm-free
    floor lies above its full floor: checked with no tolerance on every
    feasible candidate, with and without the committed calibration."""
    model, batch = MODEL_CATALOG[name], int(n_gpus * batch_per_gpu)
    profile = CalibratedProfile.load(PROFILE_PATH) if calibrated else None
    for plan in candidate_plans(model, n_gpus):
        if plan.pp > PP_LIMIT or not feasible(model, plan, AMPERE, batch):
            continue
        engine = IterationEngine(model, plan, features, backend=backend, profile=profile)
        assert engine.comm_free_floor(batch) <= engine.analytic_bounds(batch), plan


@settings(max_examples=15, deadline=None)
@given(
    data=st.data(),
    name=st.sampled_from(["gpt-7b", "gpt-13b", "gpt-30b"]),
    n_gpus=st.sampled_from([16, 32, 64, 128]),
    top_k=st.integers(1, 5),
    nodes_per_pod=st.sampled_from([1, 2, 4]),
)
def test_fabric_bounds_admissible_and_pruned_fabric_search_exact(
    data, name, n_gpus, top_k, nodes_per_pod
):
    """The fabric ladder's routing-free floor keeps the search exact, and
    stays below ``simulate`` also on a private many-pod fabric, where DP
    rings and pipeline hops cross pods."""
    model, batch = MODEL_CATALOG[name], 4 * n_gpus
    pruned = search_plans(model, n_gpus, batch, top_k=top_k, backend="fabric")
    brute = search_plans(model, n_gpus, batch, top_k=top_k, backend="fabric", exhaustive=True)
    assert pruned.top == brute.top

    plans = [p for p in candidate_plans(model, n_gpus) if feasible(model, p, AMPERE, batch)]
    plan = data.draw(st.sampled_from(plans))
    fabric = ClosFabric(n_nodes=-(-n_gpus // 8), nodes_per_pod=nodes_per_pod)
    comm = GroupCommModel(plan=plan, fabric=fabric, backend="fabric")
    engine = IterationEngine(model, plan, MEGASCALE_ISO_BATCH, comm_model=comm)
    exact = engine.simulate(batch).iteration_time
    # The floors are exact in floating point; the bound sums its terms in
    # another order than ``simulate``, which can round a tight (pp=1)
    # bound up to two ulps over, on either backend.
    assert engine.analytic_bounds(batch) <= exact * (1 + 1e-15)


def test_cold_fabric_bounds_route_nothing(monkeypatch):
    """Pricing the fabric ladder calls no router, fabric price or water-fill."""
    import repro.collectives.fabric as fabric_module
    import repro.collectives.groups as groups_module

    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(ClosFabric, "path", counted("path", ClosFabric.path))
    monkeypatch.setattr(
        groups_module, "fabric_collective_cost",
        counted("fabric_collective_cost", groups_module.fabric_collective_cost),
    )
    monkeypatch.setattr(
        fabric_module, "max_min_fair_rates",
        counted("max_min_fair_rates", fabric_module.max_min_fair_rates),
    )
    clear_caches()
    # Cross-pod DP rings, cross-host pipeline hops, and a one-host ring.
    plans = [
        ParallelPlan(dp=48, tp=8, pp=8, vpp=4),
        ParallelPlan(dp=96, tp=4, pp=8, vpp=4),
        ParallelPlan(dp=8, tp=1, pp=96),
    ]
    engines = [IterationEngine(GPT_175B, p, MEGASCALE_ISO_BATCH, backend="fabric") for p in plans]
    for engine in engines:
        engine.analytic_bounds(3072)
    assert calls == []
    engines[0].simulate(3072)  # exact pricing still routes
    assert {"path", "fabric_collective_cost", "max_min_fair_rates"} <= set(calls)


def test_analytic_bounds_validate_inputs():
    engine = IterationEngine(GPT_13B, ParallelPlan(dp=4, tp=2, pp=2), MEGASCALE_ISO_BATCH)
    floor = engine.analytic_bounds(64)
    assert isinstance(floor, float) and 0 < floor <= upper_bound(engine, 64)
    # The bound refuses every shape ``simulate`` cannot run, with its error.
    with pytest.raises(ValueError, match="not divisible into micro-batches"):
        engine.analytic_bounds(66)
    interleaved = IterationEngine(
        GPT_175B, ParallelPlan(dp=2, tp=8, pp=8, vpp=2), MEGASCALE_ISO_BATCH
    )
    for price in (interleaved.analytic_bounds, interleaved.simulate):
        with pytest.raises(
            ValueError, match=r"^interleaving requires microbatches \(4\) % stages \(8\) == 0$"
        ):
            price(8)
    assert interleaved.analytic_bounds(16) > 0  # m = 8 runs


def test_comm_free_floor_calls_no_comm_model_and_refuses_what_the_bound_refuses():
    engine = IterationEngine(
        GPT_175B, ParallelPlan(dp=48, tp=8, pp=8, vpp=4), MEGASCALE_ISO_BATCH, backend="fabric"
    )
    engine.comm = None  # any comm-model call would raise
    assert 0 < engine.comm_free_floor(3072)
    with pytest.raises(ValueError, match="not divisible into micro-batches"):
        engine.comm_free_floor(3073)
    with pytest.raises(
        ValueError, match=r"^interleaving requires microbatches \(12\) % stages \(8\) == 0$"
    ):
        engine.comm_free_floor(576)


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


def test_incumbent_keeps_a_floor_within_rounding_of_the_kth_best():
    """A lower bound can round up to two ulps over the exact time, so a
    floor one ulp above the k-th best may belong to a candidate that ties
    into the top k: it is priced, not pruned."""
    incumbent = _Incumbent(top_k=2)
    t = 6.34
    incumbent.add(5.0, 0)
    incumbent.add(t, 1)
    assert incumbent.threshold == t
    assert not incumbent.prunes(math.nextafter(t, math.inf))
    assert not incumbent.prunes(t * (1 + PRUNE_SLACK))
    assert incumbent.prunes(t * (1 + 4 * PRUNE_SLACK))
