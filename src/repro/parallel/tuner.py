"""Parallelism auto-tuner: pick (tp, pp, vpp, micro-batch) for a job.

The paper fixes its 3D configurations by expert choice (Table 1).  The
tuner automates that choice: this module enumerates feasible plans
(memory check, divisibility constraints, TP confined to one node), and
:func:`repro.parallel.search.search_plans` prices and ranks them by
MFU.  Useful both as a library feature and as an ablation harness for
"what if we had chosen differently".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..hardware.gpu import GpuSpec
from ..hardware.node import NodeSpec
from ..model.memory import fits
from ..model.transformer import ModelSpec
from .pipeline import validate_shape
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
    model: ModelSpec, n_gpus: int, max_micro_batch: int = 2
) -> Iterator[ParallelPlan]:
    """All structurally valid plans for (model, n_gpus).

    Constraints enforced:
    * tp divides the GPU count of the host the engine prices
      (``NodeSpec().gpus_per_node``), so TP stays on NVLink;
    * pp divides the layer count; vpp chunks divide layers/pp;
    * dp = n_gpus / (tp * pp) is a positive integer.
    """
    if n_gpus < 1:
        raise ValueError("n_gpus must be >= 1")
    host = NodeSpec().gpus_per_node
    for tp in (t for t in range(1, host + 1) if host % t == 0):
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
        validate_shape(plan.pp, plan.vpp, plan.n_microbatches(global_batch))
    except ValueError:
        return False
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
