"""The public API: simulate training systems on the cluster substrate.

    from repro import megascale, megatron_lm, job_175b

    job = job_175b(n_gpus=12288, global_batch=6144)
    ours = megascale().run(job)
    base = megatron_lm().run(job)
    print(ours.table_row())
    print(base.table_row())

A :class:`TrainingSystem` bundles a feature set with the operational
behaviours that go with it (straggler eviction, fault tolerance).  The
two presets mirror the paper's comparison; custom feature sets support
ablations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.features import MEGASCALE_ISO_BATCH, MEGATRON_LM, FeatureSet
from ..training.iteration import IterationEngine
from ..training.stragglers import expected_job_slowdown
from .config import TrainingJob
from .report import Comparison, JobReport


@dataclass
class TrainingSystem:
    """A named feature set plus operational policy.

    ``backend`` selects the collective cost model for every engine the
    system builds (see :data:`~repro.collectives.primitives.COST_BACKENDS`).
    ``profile`` is an optional
    :class:`~repro.calibration.CalibratedProfile` whose fitted constants
    override the GPU/collective catalog values in every engine built.
    """

    name: str
    features: FeatureSet
    evicts_stragglers: bool = True
    straggler_fraction: float = 0.005
    straggler_slowdown: float = 0.90
    backend: str = "analytic"
    profile: Optional[object] = None

    def _engine(self, job: TrainingJob) -> IterationEngine:
        """A fresh engine for ``job`` with this system's features,
        backend and profile (its pricing memos live in ``repro.exec.memo``)."""
        return IterationEngine(
            job.model_spec,
            job.plan(),
            self.features,
            gpu=job.gpu_spec,
            backend=self.backend,
            profile=self.profile,
        )

    def speed_factor(self, job: TrainingJob) -> float:
        """Expected whole-job derating from the straggler lottery."""
        if self.evicts_stragglers:
            return 1.0
        return expected_job_slowdown(
            job.n_hosts, self.straggler_fraction, self.straggler_slowdown
        )

    def run(self, job: TrainingJob, perturbation: float = 0.0) -> JobReport:
        """Simulate one steady-state iteration of ``job``."""
        result = self._engine(job).simulate(
            job.global_batch,
            perturbation=perturbation,
            speed_factor=self.speed_factor(job),
        )
        return JobReport(
            system=self.name,
            job=job,
            iteration_time=result.iteration_time,
            mfu=result.mfu,
            details=result,
        )


def megascale(
    features: Optional[FeatureSet] = None,
    backend: str = "analytic",
    profile: Optional[object] = None,
) -> TrainingSystem:
    """The full MegaScale stack (straggler eviction on)."""
    return TrainingSystem(
        name="MegaScale",
        features=features or MEGASCALE_ISO_BATCH,
        evicts_stragglers=True,
        backend=backend,
        profile=profile,
    )


def megatron_lm(
    features: Optional[FeatureSet] = None,
    backend: str = "analytic",
    profile: Optional[object] = None,
) -> TrainingSystem:
    """The Megatron-LM baseline (no overlap features, no eviction)."""
    return TrainingSystem(
        name="Megatron-LM",
        features=features or MEGATRON_LM,
        evicts_stragglers=False,
        backend=backend,
        profile=profile,
    )


def compare(
    job: TrainingJob, backend: str = "analytic", profile: Optional[object] = None
) -> Comparison:
    """MegaScale vs Megatron-LM on the same job (a Table 2 cell pair)."""
    return Comparison(
        megascale=megascale(backend=backend, profile=profile).run(job),
        baseline=megatron_lm(backend=backend, profile=profile).run(job),
    )
