"""Training engine: iteration simulation, overlap, data pipeline, runs.

Scaling-sweep helpers live in :mod:`repro.training.sweeps`.
"""

from .. import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "datapipe": ("data_pipeline_cost", "iteration_tokens_per_host"),
    "iteration": ("IterationEngine", "IterationResult"),
    "overlap": ("dp_exposed_time", "pp_policy", "tp_exposed_per_layer"),
    "runner": ("RunResult", "TrainingRunner", "mfu_consistency"),
    "stragglers": ("PerturbationModel", "StragglerModel", "expected_job_slowdown"),
})
