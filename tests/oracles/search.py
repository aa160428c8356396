"""The eager ladder: the oracle for the plan search's lazy heap.

:func:`repro.parallel.search.search_plans` fills its best-first ladder
lazily: a candidate enters at its comm-free floor and is floored in
full (``analytic_bounds``) only when it reaches the front.  This search
floors every feasible candidate in full up front, sorts them by
``(floor, canonical index)`` and prices them in that order, ending at
the first floor the incumbent prunes.  The property tests in
``tests/parallel/test_search.py`` hold the two to the same leaderboard,
the same :class:`~repro.parallel.search.SearchStats` and the same
candidates priced in the same order.
"""

from __future__ import annotations

import functools
from typing import Callable, List, Optional, Tuple

from repro.core.features import MEGASCALE_ISO_BATCH, FeatureSet
from repro.exec import PersistentMemo, SweepStats, run_tasks
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
from repro.parallel.tuner import TunedPlan, candidate_plans, evaluate_plan, feasible
from repro.training.iteration import IterationEngine


def eager_search_plans(
    model: ModelSpec,
    n_gpus: int,
    global_batch: int,
    features: FeatureSet = MEGASCALE_ISO_BATCH,
    gpu: GpuSpec = AMPERE,
    top_k: int = 5,
    gpus_per_node: int = 8,
    max_micro_batch: int = 2,
    workers: int = 0,
    hub=None,
    cache: Optional[PersistentMemo] = None,
    exhaustive: bool = False,
    backend: str = "analytic",
    profile=None,
) -> SearchResult:
    """``search_plans`` over one ladder sorted up front (same arguments)."""
    if top_k < 1:
        raise ValueError("top_k must be >= 1")

    stats = SearchStats(workers=workers)
    enumerated = list(
        candidate_plans(
            model, n_gpus, gpus_per_node=gpus_per_node, max_micro_batch=max_micro_batch
        )
    )
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

    price: Callable[[ParallelPlan], TunedPlan] = functools.partial(
        evaluate_plan,
        model=model,
        features=features,
        gpu=gpu,
        global_batch=global_batch,
        backend=backend,
        profile=profile,
    )
    key_fn = (
        (
            lambda plan: plan_cache_key(
                model, plan, features, gpu, global_batch, backend, profile=profile
            )
        )
        if cache is not None
        else None
    )

    # One ladder of (lower bound, canonical index, plan), cheapest floor first.
    ladder = sorted(
        (
            IterationEngine(
                model, plan, features, gpu=gpu, backend=backend, profile=profile
            ).analytic_bounds(global_batch),
            index,
            plan,
        )
        for index, plan in enumerate(screened)
    )
    incumbent = _Incumbent(top_k)
    priced: List[Tuple[float, int, TunedPlan]] = []
    batch_size = 1 if workers == 0 else max(2 * workers, 4)
    batch_stats: List[SweepStats] = []
    cursor = 0
    while cursor < len(ladder):
        # The ladder ascends in lower bound and the incumbent only falls,
        # so the first candidate the incumbent prunes ends the search.
        end = cursor
        while end < min(cursor + batch_size, len(ladder)) and (
            exhaustive or not incumbent.prunes(ladder[end][0])
        ):
            end += 1
        if end == cursor:
            break
        batch = ladder[cursor:end]
        cursor = end
        results, sweep_stats = run_tasks(
            price,
            [plan for _, _, plan in batch],
            workers=workers,
            cache=cache,
            cache_key=key_fn,
        )
        batch_stats.append(sweep_stats)
        for (_, index, _), tuned in zip(batch, results):
            priced.append((tuned.iteration_time, index, tuned))
            if incumbent.add(tuned.iteration_time, index):
                best = incumbent.best
                kth = incumbent.threshold if incumbent.threshold is not None else best
                stats.incumbent.append((len(priced), best, kth))  # type: ignore[arg-type]

    stats.bound_pruned = len(ladder) - cursor
    stats.exec_stats = SweepStats.merge(batch_stats)
    stats.persistent_hits = stats.exec_stats.persistent_hits
    stats.evaluated = stats.exec_stats.n_tasks - stats.persistent_hits

    # Final ranking: iteration time ascending, canonical order on exact
    # ties — identical to stable-sorting an exhaustive evaluation.
    priced.sort(key=lambda item: (item[0], item[1]))
    top = [tuned for _, _, tuned in priced[:top_k]]

    if cache is not None:
        cache.flush()
    if hub is not None:
        _emit_search_telemetry(hub, stats, priced, top_k)
    return SearchResult(top=top, stats=stats)
