"""Sweep execution layer: parallel fan-out + memoized cost models.

The paper's headline results are sweeps — dozens of (model, plan,
feature-set) points.  This package makes them cheap twice over:

* :class:`SweepExecutor` / :func:`run_tasks` fan points out over a
  ``ProcessPoolExecutor`` with deterministic, insertion-ordered result
  merging (``workers=0`` = exact serial path, the default).
* :func:`repro.exec.memo.memoized` wraps the pure cost models and
  builders (``block_cost``, ``conflict_factor``, ``pipeline_schedule``,
  ``clos_fabric``, ``mc_fixtures``) in named process-local caches whose
  hit/miss/eviction counters surface through :class:`SweepStats`.

Usage::

    from repro.exec import run_tasks
    from repro import compare, job_175b

    jobs = [job_175b(n, 768) for n in (256, 512, 1024)]
    results, stats = run_tasks(compare, jobs, workers=4)
    print(stats.describe())
"""

from .. import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "executor": ("SweepExecutor", "run_tasks"),
    "memo": (
        "MemoCache",
        "PersistentMemo",
        "clear_caches",
        "cost_model_fingerprint",
        "get_cache",
        "memoized",
        "registered_caches",
    ),
    "stats": ("CacheReport", "SweepStats"),
})
