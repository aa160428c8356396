"""Parallelism auto-tuner: pick (tp, pp, vpp, micro-batch) for a job.

The paper fixes its 3D configurations by expert choice (Table 1).  This
tuner automates that choice: enumerate feasible plans (memory check,
divisibility constraints, TP confined to one node), price each with the
iteration engine, and rank by MFU.  Useful both as a library feature and
as an ablation harness for "what if we had chosen differently".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

from ..core.features import MEGASCALE_ISO_BATCH, FeatureSet
from ..hardware.gpu import AMPERE, GpuSpec
from ..model.memory import fits
from ..model.transformer import ModelSpec
from .plan import ParallelPlan


@dataclass(frozen=True)
class TunedPlan:
    """One evaluated candidate."""

    plan: ParallelPlan
    mfu: float
    iteration_time: float

    def describe(self) -> str:
        return f"{self.plan.describe()}  ->  MFU {self.mfu:.1%}, iter {self.iteration_time:.2f}s"


def candidate_plans(
    model: ModelSpec,
    n_gpus: int,
    gpus_per_node: int = 8,
    max_micro_batch: int = 2,
) -> Iterator[ParallelPlan]:
    """All structurally valid plans for (model, n_gpus).

    Constraints enforced:
    * tp divides the per-node GPU count (TP stays on NVLink);
    * pp divides the layer count; vpp chunks divide layers/pp;
    * dp = n_gpus / (tp * pp) is a positive integer.
    """
    if n_gpus < 1:
        raise ValueError("n_gpus must be >= 1")
    tps = [t for t in (1, 2, 4, 8) if t <= gpus_per_node and gpus_per_node % t == 0]
    for tp in tps:
        if n_gpus % tp != 0:
            continue
        for pp in range(1, min(model.n_layers, n_gpus // tp) + 1):
            if model.n_layers % pp != 0 or n_gpus % (tp * pp) != 0:
                continue
            layers_per_stage = model.n_layers // pp
            if pp == 1:
                vpps = [1]  # interleaving is meaningless without a pipeline
            else:
                vpps = [v for v in (1, 2, 3, 4, 6) if layers_per_stage % v == 0]
            for vpp in vpps:
                for micro_batch in range(1, max_micro_batch + 1):
                    yield ParallelPlan(
                        dp=n_gpus // (tp * pp),
                        tp=tp,
                        pp=pp,
                        vpp=vpp,
                        micro_batch=micro_batch,
                    )


def feasible(model: ModelSpec, plan: ParallelPlan, gpu: GpuSpec, global_batch: int) -> bool:
    """Memory + batch-divisibility feasibility."""
    try:
        m = plan.n_microbatches(global_batch)
    except ValueError:
        return False
    if plan.vpp > 1 and m % plan.pp != 0:
        return False  # interleaving constraint
    return fits(
        model,
        gpu,
        tp=plan.tp,
        pp=plan.pp,
        dp=plan.dp,
        micro_batch=plan.micro_batch,
        vpp=plan.vpp,
        zero_stage=plan.zero_stage,
        recompute=plan.recompute,
    )


def evaluate_plan(
    plan: ParallelPlan,
    model: ModelSpec,
    features: FeatureSet,
    gpu: GpuSpec,
    global_batch: int,
    backend: str = "analytic",
    profile=None,
) -> TunedPlan:
    """Price one candidate with the iteration engine.

    Module-level (not a closure) so the sweep executor can ship it to
    worker processes (``profile``, a frozen dataclass, pickles along).
    """
    from ..training.iteration import IterationEngine  # avoid import cycle

    engine = IterationEngine(
        model, plan, features, gpu=gpu, backend=backend, profile=profile
    )
    outcome = engine.simulate(global_batch)
    return TunedPlan(plan=plan, mfu=outcome.mfu, iteration_time=outcome.iteration_time)


def tune_with_stats(
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
    cache=None,
    exhaustive: bool = False,
    backend: str = "analytic",
    profile=None,
):
    """Exact top-k plans *plus* the search accounting.

    Returns ``(results, SearchStats)`` — see :func:`tune` for the
    ranking semantics and :mod:`repro.parallel.search` for how pruning
    preserves exactness.  The stats report enumerated / feasible /
    dominance-pruned / bound-pruned / evaluated candidate counts.
    """
    from .search import search_plans

    result = search_plans(
        model,
        n_gpus,
        global_batch,
        features=features,
        gpu=gpu,
        top_k=top_k,
        pp_limit=pp_limit,
        gpus_per_node=gpus_per_node,
        max_micro_batch=max_micro_batch,
        workers=workers,
        hub=hub,
        cache=cache,
        exhaustive=exhaustive,
        backend=backend,
        profile=profile,
    )
    return result.top, result.stats


def tune(
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
    cache=None,
    exhaustive: bool = False,
    backend: str = "analytic",
    profile=None,
) -> List[TunedPlan]:
    """The exact ``top_k`` feasible plans by MFU (= iteration time).

    The search is exact without brute force: every feasible candidate is
    either priced by the :class:`~repro.training.iteration.IterationEngine`
    or *certified* out of the top-k by an admissible analytic bound
    (:mod:`repro.parallel.search`).  Ranking is iteration time ascending
    — identical to MFU descending, since every candidate fills the same
    ``n_gpus`` — with exact ties in the canonical candidate order.

    ``pp_limit`` bounds the pipeline depth searched;
    ``gpus_per_node`` and ``max_micro_batch`` widen or narrow the space
    itself (forwarded to :func:`candidate_plans`).  ``workers`` fans
    exact pricing out over worker processes via :mod:`repro.exec`;
    ``cache`` (a :class:`~repro.exec.memo.PersistentMemo`) carries
    priced points across runs; ``hub`` collects search telemetry on the
    ``exec`` lane.  ``backend`` selects the collective cost model
    (``"analytic"`` alpha-beta forms or ``"fabric"`` flow-level routing,
    see :data:`~repro.collectives.primitives.COST_BACKENDS`).
    ``profile`` (a :class:`~repro.calibration.CalibratedProfile`) applies
    fitted calibration constants to every candidate priced — and becomes
    part of the persistent-cache key, so calibrated and default prices
    never mix.  Use :func:`tune_with_stats` to also get the enumerated /
    pruned / evaluated accounting.
    """
    results, _stats = tune_with_stats(
        model,
        n_gpus,
        global_batch,
        features=features,
        gpu=gpu,
        top_k=top_k,
        pp_limit=pp_limit,
        gpus_per_node=gpus_per_node,
        max_micro_batch=max_micro_batch,
        workers=workers,
        hub=hub,
        cache=cache,
        exhaustive=exhaustive,
        backend=backend,
        profile=profile,
    )
    return results
