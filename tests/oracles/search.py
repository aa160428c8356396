"""The eager ladder: the oracle for the plan search's lazy heap.

:func:`repro.parallel.search.search_plans` fills its best-first ladder
lazily: a candidate enters at its comm-free floor and is floored in
full (``analytic_bounds``) only when it reaches the front.  This search
floors every feasible candidate in full up front, sorts them by
``(floor, canonical index)`` and prices them in that order, each with a
fresh engine, ending at the first floor the incumbent prunes.  The
property tests in ``tests/parallel/test_search.py`` hold the two to the
same leaderboard, the same :class:`~repro.parallel.search.SearchStats`
and the same candidates priced in the same order at the same prices.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.features import MEGASCALE_ISO_BATCH, FeatureSet
from repro.exec import PersistentMemo
from repro.hardware.gpu import AMPERE, GpuSpec
from repro.model.transformer import ModelSpec
from repro.parallel.plan import ParallelPlan
from repro.parallel.search import (
    PP_LIMIT,
    SearchResult,
    SearchStats,
    _emit_search_telemetry,
    _Incumbent,
    canonical_key,
    plan_cache_key,
)
from repro.parallel.tuner import TunedPlan, candidate_plans, feasible
from repro.training.iteration import IterationEngine


def eager_search_plans(
    model: ModelSpec,
    n_gpus: int,
    global_batch: int,
    features: FeatureSet = MEGASCALE_ISO_BATCH,
    gpu: GpuSpec = AMPERE,
    top_k: int = 5,
    max_micro_batch: int = 2,
    hub=None,
    cache: Optional[PersistentMemo] = None,
    exhaustive: bool = False,
    backend: str = "analytic",
    profile=None,
) -> SearchResult:
    """``search_plans`` over one ladder sorted up front (same arguments)."""
    if top_k < 1:
        raise ValueError("top_k must be >= 1")

    stats = SearchStats()
    enumerated = list(candidate_plans(model, n_gpus, max_micro_batch=max_micro_batch))
    stats.enumerated = len(enumerated)
    screened = [
        plan
        for plan in enumerated
        if plan.pp <= PP_LIMIT and feasible(model, plan, gpu, global_batch)
    ]
    screened.sort(key=canonical_key)
    stats.feasible = len(screened)
    if not screened:
        raise ValueError(
            f"no feasible plan for {model.name} on {n_gpus} GPUs at batch {global_batch}"
        )

    def engine(plan: ParallelPlan) -> IterationEngine:
        return IterationEngine(model, plan, features, gpu=gpu, backend=backend, profile=profile)

    # One ladder of (lower bound, canonical index, plan), cheapest floor first.
    ladder = sorted(
        (engine(plan).analytic_bounds(global_batch), index, plan)
        for index, plan in enumerate(screened)
    )
    incumbent = _Incumbent(top_k)
    priced: List[Tuple[float, int, TunedPlan]] = []
    cursor = 0
    # The ladder ascends in lower bound and the incumbent only falls, so
    # the first candidate the incumbent prunes ends the search.
    while cursor < len(ladder) and (exhaustive or not incumbent.prunes(ladder[cursor][0])):
        _, index, plan = ladder[cursor]
        cursor += 1
        key = plan_cache_key(model, plan, features, gpu, global_batch, backend, profile)
        tuned = cache.get(key) if cache is not None else None
        if tuned is None:
            # A fresh engine, not the one that floored the candidate.
            outcome = engine(plan).simulate(global_batch)
            tuned = TunedPlan(plan, outcome.mfu, outcome.iteration_time)
            stats.evaluated += 1
            if cache is not None:
                cache.put(key, tuned)
        else:
            stats.persistent_hits += 1
        priced.append((tuned.iteration_time, index, tuned))
        if incumbent.add(tuned.iteration_time, index):
            best = incumbent.best
            kth = incumbent.threshold if incumbent.threshold is not None else best
            stats.incumbent.append((len(priced), best, kth))  # type: ignore[arg-type]
    stats.bound_pruned = len(ladder) - cursor

    # Final ranking: iteration time ascending, canonical order on exact
    # ties — identical to stable-sorting an exhaustive evaluation.
    priced.sort(key=lambda item: (item[0], item[1]))
    top = [tuned for _, _, tuned in priced[:top_k]]

    if cache is not None:
        cache.flush()
    if hub is not None:
        _emit_search_telemetry(hub, stats, priced, top_k)
    return SearchResult(top=top, stats=stats)
