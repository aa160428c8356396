"""Parallelism auto-tuner: pick (tp, pp, vpp, micro-batch) for a job.

The paper fixes its 3D configurations by expert choice (Table 1).  The
tuner automates that choice: this module enumerates feasible plans
(memory check, divisibility constraints, TP confined to one node) and
prices one with the iteration engine;
:func:`repro.parallel.search.search_plans` ranks them by MFU.  Useful
both as a library feature and as an ablation harness for "what if we
had chosen differently".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..core.features import FeatureSet
from ..hardware.gpu import GpuSpec
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
