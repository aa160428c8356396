"""Least-squares calibration of the cost-model constants.

:class:`CalibratedProfile` carries fitted overrides for the GPU
efficiency curve (``gemm_eff_max``, ``gemm_flops_half``,
``kernel_launch_overhead``) and the collective parameters
(``cc_efficiency``, ``inter_node_latency``).  It is applied per run —
threaded through :class:`~repro.training.iteration.IterationEngine`,
:class:`~repro.core.system.TrainingSystem` and
:func:`~repro.parallel.search.search_plans` as ``profile=`` — so the catalog
source in :mod:`repro.hardware.gpu` is never edited.

:func:`fit_profile` minimizes the mean squared *relative* error of the
simulator's predictions against the published anchors, with a
deterministic hand-rolled Nelder-Mead in a transformed space (log for
scale parameters, logit for efficiencies) — SciPy is deliberately not a
dependency.  Every prediction is a full
:meth:`~repro.training.iteration.IterationEngine.simulate` call, so the
fit sees exactly the model the simulator uses, pipeline bubbles and
overlap included.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..collectives.primitives import DEFAULT_CC_EFFICIENCY, INTER_NODE_LATENCY
from ..core.features import MEGASCALE_ISO_BATCH, MEGATRON_LM, FeatureSet
from ..hardware.gpu import AMPERE, GpuSpec
from ..training.iteration import IterationEngine
from ..training.stragglers import expected_job_slowdown
from .fixtures import Anchor

# (transform, inverse) per fittable constant: "log" for positive scale
# parameters, "logit" for (0, 1) efficiencies.
_PARAM_SPACE: Dict[str, str] = {
    "gemm_eff_max": "logit",
    "gemm_flops_half": "log",
    "kernel_launch_overhead": "log",
    "cc_efficiency": "logit",
    "inter_node_latency": "log",
}
FIT_PARAMS: Tuple[str, ...] = tuple(_PARAM_SPACE)


def is_finite_number(value: object) -> bool:
    """A JSON number (not a bool) that is a finite float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


@dataclass(frozen=True)
class CalibratedProfile:
    """Fitted cost-model overrides; ``None`` fields keep catalog values.

    Frozen (hashable, picklable, stable ``repr``) so it can key engine
    and persistent-memo caches and ship to sweep worker processes.
    """

    gemm_eff_max: Optional[float] = None
    gemm_flops_half: Optional[float] = None
    kernel_launch_overhead: Optional[float] = None
    cc_efficiency: Optional[float] = None
    inter_node_latency: Optional[float] = None
    source: str = "fit"

    def __post_init__(self) -> None:
        for name in ("gemm_eff_max", "cc_efficiency"):
            value = getattr(self, name)
            if value is not None and not 0 < value <= 1:
                raise ValueError(f"{name} must be in (0, 1], got {value}")
        for name in ("gemm_flops_half", "kernel_launch_overhead", "inter_node_latency"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")

    def constants(self) -> Dict[str, float]:
        """The overridden constants only (insertion order = FIT_PARAMS)."""
        return {
            name: getattr(self, name)
            for name in FIT_PARAMS
            if getattr(self, name) is not None
        }

    def apply_gpu(self, spec: GpuSpec) -> GpuSpec:
        """``spec`` with this profile's GPU-curve constants substituted."""
        overrides = {
            name: value
            for name, value in self.constants().items()
            if name in ("gemm_eff_max", "gemm_flops_half", "kernel_launch_overhead")
        }
        if not overrides:
            return spec
        return replace(spec, name=f"{spec.name}-cal", **overrides)

    # -- persistence ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {"source": self.source, "constants": self.constants()}

    @classmethod
    def from_dict(cls, payload: dict) -> "CalibratedProfile":
        """The profile an object of ``to_dict()``'s shape describes:
        ``constants`` maps known names to finite numbers."""
        constants = payload.get("constants") if isinstance(payload, dict) else None
        if not isinstance(constants, dict):
            raise ValueError("a profile is an object whose 'constants' is an object")
        unknown = set(constants) - set(FIT_PARAMS)
        if unknown:
            raise ValueError(f"unknown profile constants: {sorted(unknown)}")
        for name, value in constants.items():
            if not is_finite_number(value):
                raise ValueError(f"constant {name} must be a finite number, got {value!r}")
        source = payload.get("source", "fit")
        if not isinstance(source, str):
            raise ValueError(f"profile source must be a string, got {source!r}")
        return cls(source=source, **constants)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "CalibratedProfile":
        """Read and check a saved profile; a ValueError names the file."""
        with open(path, "r", encoding="utf-8") as fh:
            try:
                return cls.from_dict(json.load(fh))
            except ValueError as exc:
                raise ValueError(f"profile {path}: {exc}") from None


IDENTITY_PROFILE = CalibratedProfile(source="identity")
"""A profile overriding nothing: ``apply_gpu`` is the identity map."""


def default_profile_constants(gpu: GpuSpec = AMPERE) -> Dict[str, float]:
    """The catalog values the fit starts from (and tests compare against)."""
    return {
        "gemm_eff_max": gpu.gemm_eff_max,
        "gemm_flops_half": gpu.gemm_flops_half,
        "kernel_launch_overhead": gpu.kernel_launch_overhead,
        "cc_efficiency": DEFAULT_CC_EFFICIENCY,
        "inter_node_latency": INTER_NODE_LATENCY,
    }


# -- prediction ---------------------------------------------------------------


@dataclass(frozen=True)
class AnchorPrediction:
    """One anchor priced by the engine (under some profile)."""

    anchor_id: str
    predicted: float
    iteration_time: float
    mfu: float
    terms: Tuple[Tuple[str, float], ...]  # IterationResult.terms(), ordered


def _features_for(system: str) -> FeatureSet:
    return MEGASCALE_ISO_BATCH if system == "megascale" else MEGATRON_LM


def predict_anchor(
    anchor: Anchor, profile: Optional[CalibratedProfile] = None
) -> AnchorPrediction:
    """The simulator's value for one anchor's metric.

    Module-level (not a closure) so :func:`repro.exec.run_tasks` can
    ship predictions to worker processes.  ``system`` semantics match
    EXPERIMENTS.md's treatment of the published tables: ``megatron-lm``
    rows carry the straggler-lottery expectation (the baseline has no
    diagnostics/eviction); ``megascale`` and ``plain`` rows run clean.
    """
    engine = IterationEngine(
        anchor.model,
        anchor.plan,
        _features_for(anchor.system),
        gpu=AMPERE,
        profile=profile,
    )
    speed = 1.0
    if anchor.system == "megatron-lm":
        speed = expected_job_slowdown(max(1, anchor.n_gpus // 8))
    result = engine.simulate(anchor.global_batch, speed_factor=speed)
    if anchor.metric == "mfu":
        predicted = result.mfu * 100.0
    elif anchor.metric == "tflops_per_gpu":
        predicted = anchor.hardware_flops / (result.iteration_time * anchor.n_gpus) / 1e12
    else:  # iteration_time
        predicted = result.iteration_time
    return AnchorPrediction(
        anchor_id=anchor.id,
        predicted=predicted,
        iteration_time=result.iteration_time,
        mfu=result.mfu,
        terms=tuple(result.terms().items()),
    )


def relative_error(predicted: float, published: float) -> float:
    """Signed relative error; positive means the simulator over-predicts."""
    return (predicted - published) / published


# -- deterministic Nelder-Mead fit --------------------------------------------


def _to_space(name: str, value: float) -> float:
    if _PARAM_SPACE[name] == "log":
        return math.log(value)
    clipped = min(max(value, 1e-9), 1 - 1e-9)
    return math.log(clipped / (1 - clipped))


def _from_space(name: str, x: float) -> float:
    if _PARAM_SPACE[name] == "log":
        return math.exp(x)
    return 1.0 / (1.0 + math.exp(-x))


@dataclass(frozen=True)
class FitResult:
    """Outcome of one :func:`fit_profile` run."""

    profile: CalibratedProfile
    objective: float  # mean squared relative error at the optimum
    initial_objective: float  # same objective at the catalog constants
    n_evals: int  # objective evaluations spent
    params: Tuple[str, ...]
    residuals: Tuple[Tuple[str, float], ...]  # (anchor id, signed rel err)

    @property
    def max_abs_residual(self) -> float:
        return max((abs(r) for _, r in self.residuals), default=0.0)


def fit_profile(
    anchors: Sequence[Anchor],
    params: Sequence[str] = FIT_PARAMS,
    max_evals: int = 120,
    init: Optional[Dict[str, float]] = None,
    source: str = "fit",
) -> FitResult:
    """Fit ``params`` to the ``fit=True`` anchors by least squares.

    Deterministic: fixed simplex initialization (25% steps in the
    transformed space from the catalog constants), fixed Nelder-Mead
    coefficients, no randomness, and a hard ``max_evals`` budget.  Each
    objective evaluation prices every fit anchor with the full
    iteration engine; memoized objective values make simplex revisits
    free.  Anchors with ``fit=False`` are ignored.
    """
    params = tuple(params)
    unknown = set(params) - set(FIT_PARAMS)
    if unknown:
        raise ValueError(f"unknown fit params: {sorted(unknown)}")
    if not params:
        raise ValueError("params must be non-empty")
    targets = [a for a in anchors if a.fit]
    if not targets:
        raise ValueError("no fit=True anchors to calibrate against")

    start = dict(default_profile_constants())
    if init:
        start.update(init)

    eval_count = [0]
    memo: Dict[Tuple[float, ...], float] = {}

    def profile_at(x: Sequence[float]) -> CalibratedProfile:
        values = dict(start)
        for name, xi in zip(params, x):
            values[name] = _from_space(name, xi)
        return CalibratedProfile(source=source, **values)

    def objective(x: Tuple[float, ...]) -> float:
        if x in memo:
            return memo[x]
        eval_count[0] += 1
        profile = profile_at(x)
        total = 0.0
        for anchor in targets:
            pred = predict_anchor(anchor, profile=profile)
            total += relative_error(pred.predicted, anchor.published) ** 2
        value = total / len(targets)
        memo[x] = value
        return value

    x0 = tuple(_to_space(name, start[name]) for name in params)
    initial_objective = objective(x0)

    # Nelder-Mead with the standard coefficients (reflect 1, expand 2,
    # contract 0.5, shrink 0.5).  Ties break on insertion order, which is
    # deterministic because the simplex is built in a fixed order.
    n = len(params)
    simplex: List[Tuple[float, ...]] = [x0]
    for i in range(n):
        point = list(x0)
        point[i] += 0.25
        simplex.append(tuple(point))
    values = [objective(p) for p in simplex]

    while eval_count[0] < max_evals:
        order = sorted(range(len(simplex)), key=lambda i: (values[i], i))
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        if values[-1] - values[0] < 1e-8:
            break
        centroid = tuple(
            sum(p[d] for p in simplex[:-1]) / n for d in range(n)
        )
        worst = simplex[-1]
        reflected = tuple(2 * c - w for c, w in zip(centroid, worst))
        f_r = objective(reflected)
        if values[0] <= f_r < values[-2]:
            simplex[-1], values[-1] = reflected, f_r
        elif f_r < values[0]:
            expanded = tuple(3 * c - 2 * w for c, w in zip(centroid, worst))
            f_e = objective(expanded)
            if f_e < f_r:
                simplex[-1], values[-1] = expanded, f_e
            else:
                simplex[-1], values[-1] = reflected, f_r
        else:
            contracted = tuple(0.5 * (c + w) for c, w in zip(centroid, worst))
            f_c = objective(contracted)
            if f_c < values[-1]:
                simplex[-1], values[-1] = contracted, f_c
            else:  # shrink toward the best vertex
                best = simplex[0]
                simplex = [best] + [
                    tuple(0.5 * (b + p) for b, p in zip(best, point))
                    for point in simplex[1:]
                ]
                values = [values[0]] + [objective(p) for p in simplex[1:]]

    best_index = min(range(len(simplex)), key=lambda i: (values[i], i))
    best_x, best_f = simplex[best_index], values[best_index]
    profile = profile_at(best_x)
    residuals = tuple(
        (a.id, relative_error(predict_anchor(a, profile=profile).predicted, a.published))
        for a in targets
    )
    return FitResult(
        profile=profile,
        objective=best_f,
        initial_objective=initial_objective,
        n_evals=eval_count[0],
        params=params,
        residuals=residuals,
    )
