"""Bound-and-prune plan search: exact tuning without brute force.

The tuner's candidate space grows combinatorially with the GPU count,
and every candidate priced by the full
:class:`~repro.training.iteration.IterationEngine` costs a task-graph
execution.  This module finds the **exact** top-k plans while calling
the engine as rarely as possible, with three mechanisms stacked on the
analytic bounds of
:meth:`~repro.training.iteration.IterationEngine.analytic_bounds`:

1. **Pareto-dominance filtering** — before any engine call, candidate X
   is dropped when at least ``top_k`` candidates Y exist with
   ``memory(Y) <= memory(X)`` and ``upper(Y) < lower(X)``: even Y's
   pessimistic time beats X's optimistic time, so X provably cannot
   reach the top-k.
2. **Coarse-then-exact ladder** — survivors are priced in ascending
   order of a cheap closed-form estimate, so the incumbent (the k-th
   best exact time found so far) tightens as early as possible.
3. **Branch-and-bound pruning** — a candidate whose admissible lower
   bound already exceeds the incumbent is skipped without pricing.

Because every candidate shares ``world_size == n_gpus``, the reference
FLOPs and the peak FLOPs, ranking by MFU descending is *exactly* ranking
by iteration time ascending — so pruning in the time domain preserves
the MFU leaderboard bit for bit.  Ties rank in the tuner's canonical
candidate order (smaller model-parallel footprint first), identical to
exhaustive evaluation.

A cross-run :class:`~repro.exec.memo.PersistentMemo` (versioned by the
cost-model fingerprint, safe to delete) lets repeated ``tune``/``sweep``
invocations skip already-priced points entirely.  All search decisions —
enumerated / dominance-pruned / bound-pruned / exactly priced, plus the
incumbent trajectory — are reported in :class:`SearchStats` and, with a
``hub=``, emitted as spans and counters on the ``exec`` telemetry lane.
"""

from __future__ import annotations

import functools
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ..core.features import MEGASCALE_ISO_BATCH, FeatureSet
from ..exec import PersistentMemo, SweepStats, run_tasks
from ..hardware.gpu import AMPERE, GpuSpec
from ..model.memory import memory_breakdown
from ..model.transformer import ModelSpec
from .plan import ParallelPlan

# Canonical candidate order: smaller model-parallel footprints first
# (less communication), then deeper interleaving, then micro-batch.
# Exhaustive evaluation prices candidates in this order and breaks exact
# ties by it; the pruned search reproduces the same tie-break through
# each candidate's canonical index.
def canonical_key(plan: ParallelPlan) -> Tuple[int, int, int]:
    return (plan.tp * plan.pp, -plan.vpp, plan.micro_batch)


@dataclass(frozen=True)
class CandidateBounds:
    """One feasible candidate with its analytic brackets, pre-pricing."""

    index: int  # position in the canonical candidate order
    plan: ParallelPlan
    lower: float  # admissible floor on exact iteration time
    upper: float  # pessimistic ceiling on exact iteration time
    estimate: float  # coarse closed-form guess (ladder ordering only)
    memory_bytes: float  # peak per-GPU memory of the plan


@dataclass
class SearchStats:
    """Where every enumerated candidate went, plus the incumbent path.

    ``evaluated + persistent_hits + bound_pruned + dominance_pruned``
    accounts for every feasible candidate; nothing is dropped silently.
    ``incumbent`` records ``(candidates priced so far, best exact time,
    k-th best exact time)`` each time the frontier tightens.
    """

    enumerated: int = 0  # structurally valid plans
    feasible: int = 0  # survived memory / divisibility screening
    dominance_pruned: int = 0  # k candidates certified strictly better
    bound_pruned: int = 0  # lower bound above the incumbent
    evaluated: int = 0  # full IterationEngine.simulate pricings
    persistent_hits: int = 0  # answered from the cross-run disk cache
    workers: int = 0
    incumbent: List[Tuple[int, float, float]] = field(default_factory=list)
    exec_stats: Optional[SweepStats] = None

    @property
    def priced(self) -> int:
        """Candidates with an exact time (engine or persistent cache)."""
        return self.evaluated + self.persistent_hits

    @property
    def brute_force_evaluations(self) -> int:
        """Engine calls an exhaustive search would make."""
        return self.feasible

    @property
    def prune_rate(self) -> float:
        """Fraction of feasible candidates never priced exactly."""
        if not self.feasible:
            return 0.0
        return 1.0 - self.priced / self.feasible

    def describe(self) -> str:
        lines = [
            f"plan search: {self.enumerated} enumerated, {self.feasible} feasible",
            f"  pruned: {self.dominance_pruned} by dominance, "
            f"{self.bound_pruned} by bound ({self.prune_rate:.0%} of feasible)",
            f"  priced: {self.evaluated} engine evaluations"
            + (
                f", {self.persistent_hits} persistent-cache hits"
                if self.persistent_hits
                else ""
            ),
        ]
        if self.incumbent:
            _, best, kth = self.incumbent[-1]
            lines.append(f"  incumbent: best {best:.3f}s, k-th {kth:.3f}s")
        return "\n".join(lines)


@dataclass(frozen=True)
class SearchResult:
    """The exact top-k plans plus the accounting of how they were found."""

    top: List["TunedPlan"]  # noqa: F821 — imported lazily from .tuner
    stats: SearchStats


def candidate_bounds(
    plan: ParallelPlan,
    model: ModelSpec,
    features: FeatureSet,
    gpu: GpuSpec,
    global_batch: int,
    index: int = 0,
    backend: str = "analytic",
    profile=None,
) -> CandidateBounds:
    """Analytic brackets + memory footprint of one candidate (no simulate)."""
    from ..training.iteration import IterationEngine  # avoid import cycle

    engine = IterationEngine(
        model, plan, features, gpu=gpu, backend=backend, profile=profile
    )
    bounds = engine.analytic_bounds(global_batch)
    memory = memory_breakdown(
        model,
        tp=plan.tp,
        pp=plan.pp,
        dp=plan.dp,
        micro_batch=plan.micro_batch,
        vpp=plan.vpp,
        zero_stage=plan.zero_stage,
        recompute=plan.recompute,
    ).total
    return CandidateBounds(
        index=index,
        plan=plan,
        lower=bounds.lower,
        upper=bounds.upper,
        estimate=bounds.estimate,
        memory_bytes=memory,
    )


def plan_cache_key(
    model: ModelSpec,
    plan: ParallelPlan,
    features: FeatureSet,
    gpu: GpuSpec,
    global_batch: int,
    backend: str = "analytic",
    profile=None,
) -> str:
    """Stable persistent-cache key for one priced (plan, context) point.

    Built from the dataclass reprs — every field that influences the
    engine's answer is part of the key, including the cost ``backend``
    and any calibration ``profile`` overrides (appended only when set,
    so pre-existing cache entries keyed without a profile stay valid).
    The cost-model *code* version is handled separately by the memo's
    fingerprint.
    """
    key = f"tuned-plan:{model!r}|{plan!r}|{features!r}|{gpu!r}|gb={global_batch}"
    if backend != "analytic":
        key += f"|backend={backend}"
    if profile is not None:
        key += f"|profile={profile!r}"
    return key


def dominance_prune(
    candidates: List[CandidateBounds], top_k: int
) -> Tuple[List[CandidateBounds], List[CandidateBounds]]:
    """(kept, dropped): Pareto-dominance filtering on (memory, bound).

    X is dropped when at least ``top_k`` candidates Y with no more
    memory satisfy ``Y.upper < X.lower`` — each such Y's exact time is
    certainly strictly better than X's, so X cannot appear in the exact
    top-k.  The memory condition keeps this a true Pareto dominance (Y
    is no worse on memory *and* certifiably better on time) and means a
    kept plan is never dropped in favour of a hungrier one.

    Sorted-sweep implementation: process candidates in ascending memory
    order, maintaining the sorted upper bounds of everything seen so
    far; a bisect counts certified dominators in O(n log n).
    """
    by_memory = sorted(candidates, key=lambda c: (c.memory_bytes, c.index))
    kept: List[CandidateBounds] = []
    dropped: List[CandidateBounds] = []
    uppers: List[float] = []
    i = 0
    while i < len(by_memory):
        # Admit the whole equal-memory group before querying it: ties on
        # memory dominate each other symmetrically.
        j = i
        while j < len(by_memory) and by_memory[j].memory_bytes == by_memory[i].memory_bytes:
            insort(uppers, by_memory[j].upper)
            j += 1
        for cand in by_memory[i:j]:
            # Elements strictly below cand.lower; cand's own upper is
            # >= its lower, so it never counts itself.
            if bisect_left(uppers, cand.lower) >= top_k:
                dropped.append(cand)
            else:
                kept.append(cand)
        i = j
    kept.sort(key=lambda c: c.index)
    dropped.sort(key=lambda c: c.index)
    return kept, dropped


class _Incumbent:
    """The k best exact times seen so far, with canonical tie-break."""

    def __init__(self, top_k: int) -> None:
        self.top_k = top_k
        self._times: List[Tuple[float, int]] = []  # sorted (time, index)

    def add(self, time: float, index: int) -> bool:
        """Record one priced candidate; True if the top-k frontier moved."""
        before = (self.best, self.threshold)
        insort(self._times, (time, index))
        return (self.best, self.threshold) != before

    @property
    def threshold(self) -> Optional[float]:
        """The k-th best exact time (None until k candidates are priced)."""
        if len(self._times) < self.top_k:
            return None
        return self._times[self.top_k - 1][0]

    @property
    def best(self) -> Optional[float]:
        return self._times[0][0] if self._times else None

    def prunes(self, lower: float) -> bool:
        """Whether an admissible lower bound certifies exclusion.

        Strict inequality: a candidate whose floor merely *equals* the
        incumbent could still tie into the top-k, so it is priced.
        """
        threshold = self.threshold
        return threshold is not None and lower > threshold


def search_plans(
    model: ModelSpec,
    n_gpus: int,
    global_batch: int,
    features: FeatureSet = MEGASCALE_ISO_BATCH,
    gpu: GpuSpec = AMPERE,
    top_k: int = 5,
    pp_limit: int = 64,
    gpus_per_node: int = 8,
    max_micro_batch: int = 2,
    workers: int = 0,
    hub=None,
    cache: Optional[PersistentMemo] = None,
    exhaustive: bool = False,
    backend: str = "analytic",
    profile=None,
) -> SearchResult:
    """Exact top-k plan search with bound-and-prune (or brute force).

    Returns the identical ranking to pricing every feasible candidate
    (``exhaustive=True`` does exactly that — useful for verification and
    benchmarking) while calling the iteration engine only for candidates
    the analytic bounds cannot exclude.

    ``workers`` fans exact pricing out in batches — the result is
    identical, but batch dispatch can price a few more candidates than
    the fully sequential incumbent tightening.
    """
    from .tuner import TunedPlan, candidate_plans, evaluate_plan, feasible

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
        if plan.pp <= pp_limit and feasible(model, plan, gpu, global_batch)
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

    # Stage 1 — cheap closed-form bounds for every candidate.
    candidates = [
        candidate_bounds(
            plan, model, features, gpu, global_batch, index=i, backend=backend,
            profile=profile,
        )
        for i, plan in enumerate(screened)
    ]

    # Stage 2 — Pareto-dominance filtering on (memory, bound interval).
    if exhaustive:
        survivors = candidates
    else:
        survivors, dominated = dominance_prune(candidates, top_k)
        stats.dominance_pruned = len(dominated)

    # Stage 3 — coarse-then-exact ladder with branch-and-bound pruning.
    ladder = sorted(survivors, key=lambda c: (c.estimate, c.index))
    incumbent = _Incumbent(top_k)
    priced: List[Tuple[float, int, TunedPlan]] = []
    batch_size = 1 if workers == 0 else max(2 * workers, 4)
    batch_stats: List[SweepStats] = []
    cursor = 0
    while cursor < len(ladder):
        batch: List[CandidateBounds] = []
        while cursor < len(ladder) and len(batch) < batch_size:
            cand = ladder[cursor]
            cursor += 1
            if not exhaustive and incumbent.prunes(cand.lower):
                stats.bound_pruned += 1
                continue
            batch.append(cand)
        if not batch:
            continue
        results, sweep_stats = run_tasks(
            price,
            [c.plan for c in batch],
            workers=workers,
            cache=cache,
            cache_key=key_fn,
        )
        batch_stats.append(sweep_stats)
        for cand, tuned in zip(batch, results):
            priced.append((tuned.iteration_time, cand.index, tuned))
            if incumbent.add(tuned.iteration_time, cand.index):
                best = incumbent.best
                kth = incumbent.threshold if incumbent.threshold is not None else best
                stats.incumbent.append((len(priced), best, kth))  # type: ignore[arg-type]

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


def _emit_search_telemetry(hub, stats: SearchStats, priced, top_k: int) -> None:
    """Spans + counters on the ``exec`` lane (deterministic pseudo-time).

    The search runs in wall-clock time, which would break byte-identical
    traces, so — like the sweep executor — the lane uses a synthetic
    axis: the four stages occupy unit slots, and priced candidate ``i``
    occupies ``[i, i+1)`` on the ``search`` stream.
    """
    hub.count("exec", "search_enumerated", stats.enumerated)
    hub.count("exec", "search_feasible", stats.feasible)
    hub.count("exec", "search_dominance_pruned", stats.dominance_pruned)
    hub.count("exec", "search_bound_pruned", stats.bound_pruned)
    hub.count("exec", "search_evaluated", stats.evaluated)
    hub.count("exec", "search_persistent_hits", stats.persistent_hits)
    stages = (
        ("search:screen", stats.enumerated, stats.feasible),
        ("search:dominance", stats.feasible, stats.feasible - stats.dominance_pruned),
        ("search:bound", stats.feasible - stats.dominance_pruned, stats.priced),
        ("search:rank", stats.priced, min(top_k, stats.priced)),
    )
    for slot, (name, n_in, n_out) in enumerate(stages):
        hub.span(
            "exec", name, rank=0, start=float(slot), end=float(slot + 1),
            stream="search", candidates_in=n_in, candidates_out=n_out,
        )
    for i, (time, index, tuned) in enumerate(priced):
        hub.span(
            "exec", "search:price", rank=0, start=float(i), end=float(i + 1),
            stream="search-price", candidate=index, iteration_time=time,
            mfu=tuned.mfu,
        )
    for priced_count, best, kth in stats.incumbent:
        hub.sample("exec", "search_incumbent_best", t=float(priced_count), value=best)
        hub.sample("exec", "search_incumbent_kth", t=float(priced_count), value=kth)


__all__ = [
    "CandidateBounds",
    "SearchResult",
    "SearchStats",
    "candidate_bounds",
    "canonical_key",
    "dominance_prune",
    "plan_cache_key",
    "search_plans",
]
