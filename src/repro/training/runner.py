"""Multi-iteration training runs: MFU time series and run-to-run variance.

Couples the iteration engine with the straggler lottery and software
perturbations to reproduce the operational phenomena of §5 and §6.3:

* Figure 6 — identical jobs land on different host draws, so per-run
  MFU differs (and is depressed by whichever stragglers were drawn).
* Figure 12 / "MFU decreasing" — with the problematic code paths in
  place, MFU decays over a run; after cleaning + straggler eviction it
  is flat and consistent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..core.features import FeatureSet
from ..hardware.gpu import AMPERE, GpuSpec
from ..model.transformer import ModelSpec
from ..parallel.plan import ParallelPlan
from .iteration import IterationEngine, IterationResult
from .stragglers import PerturbationModel, StragglerModel


def emit_expectation(hub, engine: IterationEngine, global_batch: int) -> IterationResult:
    """Emit the analytic cost model's clean per-term breakdown as a span.

    One ``expectation`` span on the ``training`` lane (stream
    ``baseline``) carries the engine's per-term prediction for a healthy
    iteration — the reference the diagnosis layer residualizes observed
    iterations against, without needing the model/plan at analysis time.
    """
    clean = engine.simulate(global_batch)
    hub.span(
        "training", "expectation", 0, 0.0, clean.iteration_time,
        stream="baseline",
        iteration_time=clean.iteration_time,
        global_batch=global_batch,
        dp=engine.plan.dp,
        world_size=engine.plan.world_size,
        mfu=clean.mfu,
        **clean.terms(),
    )
    return clean


def emit_iteration(
    hub,
    engine: IterationEngine,
    global_batch: int,
    step: int,
    clock: float,
    iteration: IterationResult,
    overhead: float = 0.0,
    speed: float = 1.0,
    stage_speed=None,
) -> None:
    """Per-step telemetry on the ``training`` lane (absolute clock).

    Emits one ``iteration`` span whose attrs are the observed per-term
    breakdown (what the diagnosis baselines consume), per-stage
    forward/backward/reduce-scatter/optimizer segment spans tagged with
    ``step`` (what :meth:`~repro.observability.CudaEventTimer.from_spans`
    reads for the §5 heat-map and decline tools), and the MFU /
    tokens-per-second gauges.  The perturbation ``overhead`` (GC /
    slow-op drift) lands on stage 1's forward path, staggering its
    reduce-scatter launch — the signature of the paper's §6.3
    investigation.  ``stage_speed`` derates individual stages' compute
    spans (straggler hosts) to match what the engine simulated.
    """
    plan = engine.plan
    m = plan.n_microbatches(global_batch)
    speeds = list(stage_speed) if stage_speed is not None else [1.0] * plan.pp
    hub.span(
        "training", "iteration", 0, clock, clock + iteration.iteration_time,
        stream="iteration",
        step=step,
        iteration_time=iteration.iteration_time,
        global_batch=global_batch,
        dp=plan.dp,
        world_size=plan.world_size,
        mfu=iteration.mfu,
        **iteration.terms(),
    )
    for stage in range(plan.pp):
        fwd = engine.f_chunk * m * plan.vpp / (speed * speeds[stage])
        bwd = engine.b_chunk * m * plan.vpp / (speed * speeds[stage])
        skew = overhead if stage == 1 else 0.0
        t = clock
        hub.span(
            "training", "forward", stage, t, t + fwd + skew,
            stream="compute", step=step,
        )
        t += fwd + skew
        hub.span(
            "training", "backward", stage, t, t + bwd,
            stream="compute", step=step,
        )
        rs_start = clock + iteration.pipeline_time + skew
        rs_end = rs_start + max(iteration.dp_exposed, 1e-4)
        hub.span(
            "training", "reduce_scatter", stage, rs_start, rs_end,
            stream="comm", step=step,
        )
        hub.span(
            "training", "optimizer", stage, rs_end,
            rs_end + iteration.optimizer_time, stream="compute", step=step,
        )
    end = clock + iteration.iteration_time
    hub.sample("training", "mfu", end, iteration.mfu)
    hub.sample("training", "tokens_per_second", end, iteration.tokens_per_second)
    hub.count("training", "iterations")
    hub.observe("training", "iteration_time", iteration.iteration_time)


@dataclass
class RunResult:
    """One multi-iteration training run."""

    mfu_series: List[float] = field(default_factory=list)
    iteration_times: List[float] = field(default_factory=list)
    speed_factor: float = 1.0  # the straggler draw this run got

    @property
    def mean_mfu(self) -> float:
        return float(np.mean(self.mfu_series)) if self.mfu_series else 0.0

    @property
    def peak_mfu(self) -> float:
        return float(np.max(self.mfu_series)) if self.mfu_series else 0.0

    def mfu_slope_per_100_steps(self) -> float:
        """Linear trend of the MFU series (Figure 12's decline signal)."""
        if len(self.mfu_series) < 2:
            return 0.0
        x = np.arange(len(self.mfu_series), dtype=float)
        slope = np.polyfit(x, np.asarray(self.mfu_series), 1)[0]
        return float(slope * 100)


@dataclass
class TrainingRunner:
    """Runs iterations of one configuration with operational noise."""

    model: ModelSpec
    plan: ParallelPlan
    features: FeatureSet
    global_batch: int
    gpu: GpuSpec = AMPERE
    straggler_model: Optional[StragglerModel] = None
    evict_stragglers: bool = False  # MegaScale's diagnostics + eviction
    seed: int = 0

    def __post_init__(self) -> None:
        self._engine = IterationEngine(self.model, self.plan, self.features, self.gpu)

    @property
    def n_hosts(self) -> int:
        return max(1, self.plan.world_size // 8)

    def run(self, n_iterations: int, trial: int = 0, hub=None) -> RunResult:
        """Execute ``n_iterations`` under one scheduling draw.

        Pass a :class:`~repro.observability.TelemetryHub` as ``hub`` to
        record each step through :func:`emit_iteration`: per-stage
        segment spans on the ``training`` trace lane (absolute simulated
        time) plus per-step MFU gauge samples.  The §5 analysis tools
        read the segments back with
        ``CudaEventTimer.from_spans(hub.spans("training"))``.
        """
        if n_iterations < 1:
            raise ValueError("n_iterations must be >= 1")
        rng = np.random.default_rng(self.seed * 7919 + trial)
        speed = 1.0
        if self.straggler_model is not None:
            model = StragglerModel(
                fraction=self.straggler_model.fraction,
                slowdown=self.straggler_model.slowdown,
                rng=rng,
            )
            speed = model.job_speed_factor(self.n_hosts)
            if self.evict_stragglers:
                speed = 1.0  # diagnostics found and evicted the slow hosts
        perturb = PerturbationModel(
            features=self.features, n_hosts=self.n_hosts, rng=rng
        )
        result = RunResult(speed_factor=speed)
        clock = 0.0
        if hub is not None:
            emit_expectation(hub, self._engine, self.global_batch)
        for step in range(n_iterations):
            overhead = perturb.iteration_overhead(step)
            iteration = self._engine.simulate(
                self.global_batch, perturbation=overhead, speed_factor=speed
            )
            result.mfu_series.append(iteration.mfu)
            result.iteration_times.append(iteration.iteration_time)
            if hub is not None:
                emit_iteration(
                    hub, self._engine, self.global_batch, step, clock, iteration,
                    overhead=overhead, speed=speed,
                )
            clock += iteration.iteration_time
        return result

    def run_trials(self, n_trials: int, n_iterations: int) -> List[RunResult]:
        """Independent scheduling draws of the same job (Figure 6)."""
        if n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        return [self.run(n_iterations, trial=t) for t in range(n_trials)]

    def simulate_once(self) -> IterationResult:
        """A single clean iteration (no noise), for calibration checks."""
        return self._engine.simulate(self.global_batch)


def mfu_consistency(results: List[RunResult]) -> float:
    """Spread of mean MFU across runs (max - min), Figure 6's headline."""
    if not results:
        raise ValueError("need at least one run")
    means = [r.mean_mfu for r in results]
    return max(means) - min(means)
