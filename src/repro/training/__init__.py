"""Training engine: iteration simulation, overlap, data pipeline, runs.

Scaling-sweep helpers live in :mod:`repro.training.sweeps` (imported
directly to avoid a cycle with the public facade).
"""

from .datapipe import DataPipelineCost, data_pipeline_cost, iteration_tokens_per_host
from .iteration import IterationEngine, IterationResult
from .overlap import (
    DpExposure,
    PpPolicy,
    TpExposure,
    dp_exposed_time,
    pp_policy,
    tp_exposed_per_layer,
)
from .runner import RunResult, TrainingRunner, mfu_consistency
from .stragglers import (
    PerturbationModel,
    StragglerModel,
    expected_job_slowdown,
)

__all__ = [
    "DataPipelineCost",
    "DpExposure",
    "IterationEngine",
    "IterationResult",
    "PerturbationModel",
    "PpPolicy",
    "RunResult",
    "StragglerModel",
    "TpExposure",
    "TrainingRunner",
    "data_pipeline_cost",
    "dp_exposed_time",
    "expected_job_slowdown",
    "iteration_tokens_per_host",
    "mfu_consistency",
    "pp_policy",
    "tp_exposed_per_layer",
]
