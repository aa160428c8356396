"""Best-first branch-and-bound plan search: exact tuning without brute force.

The tuner's candidate space grows combinatorially with the GPU count,
and every candidate priced by the full
:class:`~repro.training.iteration.IterationEngine` costs a task-graph
execution.  This module finds the **exact** top-k plans while calling
the engine as rarely as possible, with two mechanisms:

1. **An admissible lower bound** —
   :meth:`~repro.training.iteration.IterationEngine.analytic_bounds`
   floors every candidate's exact iteration time with closed forms, at
   microseconds per candidate.
2. **Best-first branch-and-bound** — one ladder holds every feasible
   candidate sorted by ``(lower bound, canonical index)`` and is priced
   in that order.  Once ``top_k`` candidates are priced, the incumbent
   (the k-th best exact time so far) certifies out every candidate whose
   lower bound lies above it; since the ladder ascends in lower bound
   and the incumbent only falls, the first such candidate ends the
   search.

Because every candidate shares ``world_size == n_gpus``, the reference
FLOPs and the peak FLOPs, ranking by MFU descending is *exactly* ranking
by iteration time ascending — so pruning in the time domain preserves
the MFU leaderboard bit for bit.  Ties rank in the tuner's canonical
candidate order (smaller model-parallel footprint first), identical to
exhaustive evaluation.

A cross-run :class:`~repro.exec.memo.PersistentMemo` (versioned by the
cost-model fingerprint, safe to delete) lets repeated ``tune``/``sweep``
invocations skip already-priced points entirely.  All search decisions —
enumerated / bound-pruned / exactly priced, plus the incumbent
trajectory — are reported in :class:`SearchStats` and, with a ``hub=``,
emitted as spans and counters on the ``exec`` telemetry lane.
"""

from __future__ import annotations

import functools
from bisect import insort
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ..core.features import MEGASCALE_ISO_BATCH, FeatureSet
from ..exec import PersistentMemo, SweepStats, run_tasks
from ..hardware.gpu import AMPERE, GpuSpec
from ..model.transformer import ModelSpec
from .plan import ParallelPlan
from .tuner import TunedPlan, candidate_plans, evaluate_plan, feasible

# The deepest pipeline the search considers.
PP_LIMIT = 64


# Canonical candidate order: smaller model-parallel footprints first
# (less communication), then deeper interleaving, then micro-batch.
# Exhaustive evaluation prices candidates in this order and breaks exact
# ties by it; the pruned search reproduces the same tie-break through
# each candidate's canonical index.
def canonical_key(plan: ParallelPlan) -> Tuple[int, int, int]:
    return (plan.tp * plan.pp, -plan.vpp, plan.micro_batch)


@dataclass
class SearchStats:
    """Where every enumerated candidate went, plus the incumbent path.

    ``evaluated + persistent_hits + bound_pruned`` accounts for every
    feasible candidate; nothing is dropped silently.  ``incumbent``
    records ``(candidates priced so far, best exact time, k-th best
    exact time)`` each time the frontier tightens.
    """

    enumerated: int = 0  # structurally valid plans
    feasible: int = 0  # survived memory / divisibility screening
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
            f"  pruned: {self.bound_pruned} by bound ({self.prune_rate:.0%} of feasible)",
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

    top: List[TunedPlan]
    stats: SearchStats


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
    gpus_per_node: int = 8,
    max_micro_batch: int = 2,
    workers: int = 0,
    hub=None,
    cache: Optional[PersistentMemo] = None,
    exhaustive: bool = False,
    backend: str = "analytic",
    profile=None,
) -> SearchResult:
    """The exact ``top_k`` feasible plans by MFU (= iteration time).

    Every feasible candidate (pipelines up to :data:`PP_LIMIT` deep) is
    either priced by the :class:`~repro.training.iteration.IterationEngine`
    or certified out of the top-k by its admissible lower bound, so the
    ranking — iteration time ascending, exact ties in the canonical
    candidate order — is identical to pricing every candidate, which is
    what ``exhaustive=True`` does (the benchmark records its expected
    leaderboards that way).

    ``gpus_per_node`` and ``max_micro_batch`` widen or narrow the space
    itself (forwarded to :func:`~repro.parallel.tuner.candidate_plans`).
    ``workers`` fans exact pricing out in batches over worker processes
    via :mod:`repro.exec` — the result is identical, but a batch can
    price a few more candidates than the fully sequential search.
    ``cache`` (a :class:`~repro.exec.memo.PersistentMemo`) carries priced
    points across runs; ``hub`` collects search telemetry on the ``exec``
    lane.  ``backend`` selects the collective cost model (``"analytic"``
    alpha-beta forms or ``"fabric"`` flow-level routing, see
    :data:`~repro.collectives.primitives.COST_BACKENDS`).  ``profile`` (a
    :class:`~repro.calibration.CalibratedProfile`) applies fitted
    calibration constants to every candidate priced — and becomes part
    of the persistent-cache key, so calibrated and default prices never
    mix.
    """
    from ..training.iteration import IterationEngine  # avoid import cycle

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
            ).analytic_bounds(global_batch).lower,
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


def _emit_search_telemetry(hub, stats: SearchStats, priced, top_k: int) -> None:
    """Spans + counters on the ``exec`` lane (deterministic pseudo-time).

    The search runs in wall-clock time, which would break byte-identical
    traces, so — like the sweep executor — the lane uses a synthetic
    axis: the three stages occupy unit slots, and priced candidate ``i``
    occupies ``[i, i+1)`` on the ``search`` stream.
    """
    hub.count("exec", "search_enumerated", stats.enumerated)
    hub.count("exec", "search_feasible", stats.feasible)
    hub.count("exec", "search_bound_pruned", stats.bound_pruned)
    hub.count("exec", "search_evaluated", stats.evaluated)
    hub.count("exec", "search_persistent_hits", stats.persistent_hits)
    stages = (
        ("search:screen", stats.enumerated, stats.feasible),
        ("search:bound", stats.feasible, stats.priced),
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
    "PP_LIMIT",
    "SearchResult",
    "SearchStats",
    "canonical_key",
    "plan_cache_key",
    "search_plans",
]
