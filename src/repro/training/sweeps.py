"""Scaling-sweep utilities: the loops behind Table 2 and Figure 9.

Structured helpers so examples, benchmarks and downstream users don't
re-implement the sweep plumbing: strong scaling (fixed batch, growing
GPUs) and weak scaling (batch proportional to GPUs).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from ..core.config import TrainingJob
from ..core.report import Comparison
from ..core.system import compare
from ..exec.executor import run_tasks
from ..exec.memo import PersistentMemo
from ..exec.stats import SweepStats


def job_cache_key(kind: str, fn: Callable, job: TrainingJob) -> str:
    """Stable persistent-cache key for one sweep point.

    The dataclass reprs carry every field that influences the result;
    the comparison function's qualified name separates e.g. ``compare``
    sweeps from custom pricing functions.  A ``functools.partial`` is
    unwrapped to its base function plus its bound arguments, so e.g.
    ``partial(compare, backend="fabric")`` keys differently from plain
    ``compare`` — a bare qualname lookup would silently collide them.
    Cost-model *code* changes are handled by the memo's fingerprint.
    """
    bound: dict = {}
    inner = fn
    while isinstance(inner, functools.partial):
        # Outer partials override inner ones at call time, and we unwrap
        # outside-in, so first writer wins.
        for k, v in (inner.keywords or {}).items():
            bound.setdefault(k, v)
        if inner.args:
            bound.setdefault("__args__", inner.args)
        inner = inner.func
    fn_name = getattr(inner, "__qualname__", None) or repr(inner)
    fn_module = getattr(inner, "__module__", "")
    suffix = "".join(f"|{k}={bound[k]!r}" for k in sorted(bound))
    return f"sweep:{kind}:{fn_module}.{fn_name}|{job!r}{suffix}"


@dataclass(frozen=True)
class SweepPoint:
    """One scale point of a sweep."""

    n_gpus: int
    global_batch: int
    comparison: Comparison

    @property
    def speedup(self) -> float:
        return self.comparison.speedup


@dataclass(frozen=True)
class SweepResult:
    """An ordered collection of sweep points with summary queries.

    ``stats`` reports how the sweep executed (worker fan-out, cost-model
    cache reuse); it is excluded from equality so a parallel sweep
    compares equal to its serial twin point-for-point.
    """

    kind: str  # "strong" | "weak"
    points: List[SweepPoint]
    stats: Optional[SweepStats] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("a sweep needs at least one point")

    def table(self) -> str:
        lines = [f"{'GPUs':>7s} {'batch':>7s} {'baseline':>9s} {'megascale':>10s} {'speedup':>8s}"]
        for p in self.points:
            lines.append(
                f"{p.n_gpus:>7d} {p.global_batch:>7d} "
                f"{p.comparison.baseline.mfu:>8.1%} {p.comparison.megascale.mfu:>9.1%} "
                f"{p.speedup:>7.2f}x"
            )
        return "\n".join(lines)


def _run_comparison_sweep(
    kind: str,
    jobs: Sequence[TrainingJob],
    batches: Sequence[int],
    compare_fn: Callable[[TrainingJob], Comparison],
    workers: int,
    cache: Optional[PersistentMemo] = None,
) -> SweepResult:
    """Price ``jobs`` through the sweep executor and assemble the result.

    Results merge in insertion order, so point ``i`` always pairs with
    job ``i`` regardless of worker scheduling.  With a ``cache``, points
    priced by an earlier invocation are answered from disk
    (``stats.persistent_hits``) and fresh points are stored back.
    """
    key_fn = (
        (lambda job: job_cache_key(kind, compare_fn, job))
        if cache is not None
        else None
    )
    comparisons, stats = run_tasks(
        compare_fn, jobs, workers=workers, cache=cache, cache_key=key_fn
    )
    if cache is not None:
        cache.flush()
    points = [
        SweepPoint(job.n_gpus, batch, comparison)
        for job, batch, comparison in zip(jobs, batches, comparisons)
    ]
    return SweepResult(kind=kind, points=points, stats=stats)


def _bind_backend(
    compare_fn: Callable[[TrainingJob], Comparison], backend: str
) -> Callable[[TrainingJob], Comparison]:
    """Bind a non-default cost backend onto the comparison function.

    The default backend leaves ``compare_fn`` untouched so existing
    persistent-cache keys (built from the bare function) stay valid.
    """
    if backend == "analytic":
        return compare_fn
    return functools.partial(compare_fn, backend=backend)


def strong_scaling_sweep(
    base_job: TrainingJob,
    gpu_counts: Sequence[int],
    compare_fn: Callable[[TrainingJob], Comparison] = compare,
    workers: int = 0,
    cache: Optional[PersistentMemo] = None,
    backend: str = "analytic",
) -> SweepResult:
    """Fixed global batch across growing GPU counts (Table 2's regime).

    ``workers`` fans points out over worker processes (see
    :mod:`repro.exec`); 0 keeps the exact serial path.  ``cache`` (a
    :class:`~repro.exec.memo.PersistentMemo`) skips points priced by
    earlier invocations.  ``backend`` selects the collective cost model;
    a non-default backend binds onto ``compare_fn`` (so analytic cache
    keys are unchanged).
    """
    compare_fn = _bind_backend(compare_fn, backend)
    jobs = [base_job.scaled_to(n) for n in gpu_counts]
    batches = [base_job.global_batch] * len(jobs)
    return _run_comparison_sweep("strong", jobs, batches, compare_fn, workers, cache)


def weak_scaling_sweep(
    base_job: TrainingJob,
    gpu_counts: Sequence[int],
    batch_per_gpu: Optional[float] = None,
    compare_fn: Callable[[TrainingJob], Comparison] = compare,
    workers: int = 0,
    cache: Optional[PersistentMemo] = None,
    backend: str = "analytic",
) -> SweepResult:
    """Batch proportional to GPU count (Figure 9's regime)."""
    compare_fn = _bind_backend(compare_fn, backend)
    ratio = (
        batch_per_gpu
        if batch_per_gpu is not None
        else base_job.global_batch / base_job.n_gpus
    )
    batches = [max(1, round(n * ratio)) for n in gpu_counts]
    jobs = [base_job.scaled_to(n, b) for n, b in zip(gpu_counts, batches)]
    return _run_comparison_sweep("weak", jobs, batches, compare_fn, workers, cache)
