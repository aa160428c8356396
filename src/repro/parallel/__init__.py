"""3D parallelism: plans, pipeline schedules, ZeRO sharding, placement."""

from .pipeline import (
    PipelineTask,
    backward_dependency,
    bubble_fraction,
    forward_dependency,
    gpipe_schedule,
    interleaved_schedule,
    lamb_bubble_reduction,
    one_f_one_b_schedule,
    schedule_for,
)
from .placement import Placement, packed_placement, validate_placement
from .plan import ParallelPlan, plan_for_gpus
from .search import (
    CandidateBounds,
    SearchResult,
    SearchStats,
    candidate_bounds,
    dominance_prune,
    plan_cache_key,
    search_plans,
)
from .tuner import (
    TunedPlan,
    candidate_plans,
    feasible,
    tune,
    tune_with_stats,
)
from .zero import (
    DpCommEvent,
    chunk_grad_bytes,
    chunk_param_bytes,
    dp_comm_events,
    optimizer_state_bytes,
    optimizer_step_time,
    sharded_state_summary,
)

__all__ = [
    "CandidateBounds",
    "DpCommEvent",
    "ParallelPlan",
    "PipelineTask",
    "SearchResult",
    "SearchStats",
    "Placement",
    "backward_dependency",
    "bubble_fraction",
    "candidate_bounds",
    "chunk_grad_bytes",
    "chunk_param_bytes",
    "dominance_prune",
    "dp_comm_events",
    "plan_cache_key",
    "search_plans",
    "forward_dependency",
    "gpipe_schedule",
    "interleaved_schedule",
    "lamb_bubble_reduction",
    "one_f_one_b_schedule",
    "optimizer_state_bytes",
    "optimizer_step_time",
    "packed_placement",
    "plan_for_gpus",
    "TunedPlan",
    "candidate_plans",
    "feasible",
    "tune",
    "tune_with_stats",
    "schedule_for",
    "sharded_state_summary",
    "validate_placement",
]
