"""Sweep execution layer: parallel fan-out + memoized cost models.

The paper's headline results are sweeps — dozens of (model, plan,
feature-set) points.  This package makes them cheap twice over:

* :class:`SweepExecutor` / :func:`run_tasks` fan points out over a
  ``ProcessPoolExecutor`` with deterministic, insertion-ordered result
  merging (``workers=0`` = exact serial path, the default).
* :func:`repro.exec.memo.memoized` wraps the pure cost models
  (``block_cost``, ``conflict_factor``, ``pipeline_schedule``) in
  process-local caches whose hit/miss counters surface through
  :class:`SweepStats`.

Usage::

    from repro.exec import run_tasks
    from repro import compare, job_175b

    jobs = [job_175b(n, 768) for n in (256, 512, 1024)]
    results, stats = run_tasks(compare, jobs, workers=4)
    print(stats.describe())
"""

from .executor import SweepExecutor, run_tasks
from .memo import (
    MemoCache,
    PersistentMemo,
    cache_snapshot,
    clear_caches,
    cost_model_fingerprint,
    get_cache,
    memoized,
    registered_caches,
    reset_caches,
)
from .stats import CacheReport, SweepStats

__all__ = [
    "CacheReport",
    "MemoCache",
    "PersistentMemo",
    "SweepExecutor",
    "SweepStats",
    "cache_snapshot",
    "clear_caches",
    "cost_model_fingerprint",
    "get_cache",
    "memoized",
    "registered_caches",
    "reset_caches",
    "run_tasks",
]
