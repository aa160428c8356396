"""3D parallelism: plans, pipeline schedules, ZeRO sharding, plan search."""

from .. import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "pipeline": (
        "PipelineTask",
        "bubble_fraction",
        "interleaved_schedule",
        "lamb_bubble_reduction",
        "one_f_one_b_schedule",
    ),
    "plan": ("ParallelPlan", "plan_for_gpus"),
    "search": ("SearchStats", "search_plans"),
    "tuner": ("feasible",),
    "zero": ("dp_comm_events", "optimizer_state_bytes", "optimizer_step_time"),
})
