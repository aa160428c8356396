"""ZeRO (Zero Redundancy Optimizer) sharding math (§2, Figure 1).

ZeRO-2 shards optimizer states and gradients across the data-parallel
group, decomposing the traditional gradient all-reduce into a
reduce-scatter (backward) plus an all-gather of updated parameters
(forward of the next iteration) — same total traffic as the all-reduce,
but restructured in a way that MegaScale's DP overlap exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..model.memory import GRAD_BYTES, OPTIMIZER_BYTES_PER_PARAM, PARAM_BYTES, params_per_gpu
from ..model.transformer import ModelSpec
from .plan import ParallelPlan


@dataclass(frozen=True)
class DpCommEvent:
    """One data-parallel collective required per iteration per model chunk."""

    kind: str  # "all_gather" | "reduce_scatter" | "all_reduce"
    size: float  # full tensor bytes
    chunk: int  # model-chunk index (overlap is per-chunk, §3.2)
    phase: str  # "forward" | "backward"


def chunk_param_bytes(model: ModelSpec, plan: ParallelPlan) -> float:
    """Parameter bytes of one model chunk held by one GPU."""
    per_gpu = params_per_gpu(model, plan.tp, plan.pp) * PARAM_BYTES
    return per_gpu / plan.vpp


def chunk_grad_bytes(model: ModelSpec, plan: ParallelPlan) -> float:
    per_gpu = params_per_gpu(model, plan.tp, plan.pp) * GRAD_BYTES
    return per_gpu / plan.vpp


def dp_comm_events(model: ModelSpec, plan: ParallelPlan) -> List[DpCommEvent]:
    """The per-iteration DP collectives, one pair per model chunk.

    * ZeRO >= 1: per chunk, an all-gather of updated parameters before its
      first forward and a reduce-scatter of gradients after its last
      backward (Figure 1).
    * ZeRO 0: a single gradient all-reduce per chunk after backward.
    """
    if plan.dp == 1:
        return []
    events: List[DpCommEvent] = []
    for chunk in range(plan.vpp):
        if plan.zero_stage >= 1:
            events.append(
                DpCommEvent("all_gather", chunk_param_bytes(model, plan), chunk, "forward")
            )
            events.append(
                DpCommEvent("reduce_scatter", chunk_grad_bytes(model, plan), chunk, "backward")
            )
        else:
            events.append(
                DpCommEvent("all_reduce", chunk_grad_bytes(model, plan), chunk, "backward")
            )
    return events


def optimizer_state_bytes(model: ModelSpec, plan: ParallelPlan) -> float:
    """Per-GPU optimizer state after ZeRO sharding."""
    full = params_per_gpu(model, plan.tp, plan.pp) * OPTIMIZER_BYTES_PER_PARAM
    if plan.zero_stage >= 1:
        return full / plan.dp
    return full


def optimizer_step_time(model: ModelSpec, plan: ParallelPlan, memory_bandwidth: float) -> float:
    """Wall time of the (sharded) optimizer update — memory bound.

    The optimizer touches its shard of master weights and both moments
    (read+write) plus the gradient shard: ~3 passes over the fp32 state.
    """
    state = optimizer_state_bytes(model, plan)
    return 3.0 * state / memory_bandwidth
