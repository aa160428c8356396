"""Public facade: jobs, systems, feature presets, reports."""

from .. import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "config": ("TrainingJob", "job_175b", "job_530b"),
    "features": (
        "FeatureSet", "MEGASCALE", "MEGASCALE_ISO_BATCH", "MEGATRON_LM", "ablation_sequence",
    ),
    "jobfile": ("load_job", "save_job"),
    "report": ("Comparison", "JobReport", "render_table"),
    "system": ("TrainingSystem", "compare", "megascale", "megatron_lm"),
})
