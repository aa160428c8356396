"""3D parallelism: plans, pipeline schedules, ZeRO sharding, plan search."""

from .pipeline import (
    PipelineTask,
    bubble_fraction,
    interleaved_schedule,
    lamb_bubble_reduction,
    one_f_one_b_schedule,
)
from .plan import ParallelPlan, plan_for_gpus
from .search import SearchResult, SearchStats, plan_cache_key, search_plans
from .tuner import TunedPlan, candidate_plans, feasible
from .zero import (
    DpCommEvent,
    chunk_grad_bytes,
    chunk_param_bytes,
    dp_comm_events,
    optimizer_state_bytes,
    optimizer_step_time,
)

__all__ = [
    "DpCommEvent",
    "ParallelPlan",
    "PipelineTask",
    "SearchResult",
    "SearchStats",
    "bubble_fraction",
    "chunk_grad_bytes",
    "chunk_param_bytes",
    "dp_comm_events",
    "plan_cache_key",
    "search_plans",
    "interleaved_schedule",
    "lamb_bubble_reduction",
    "one_f_one_b_schedule",
    "optimizer_state_bytes",
    "optimizer_step_time",
    "plan_for_gpus",
    "TunedPlan",
    "candidate_plans",
    "feasible",
]
