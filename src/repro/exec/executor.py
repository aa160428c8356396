"""Parallel sweep execution over a :class:`~concurrent.futures.ProcessPoolExecutor`.

A sweep is an ordered list of independent pricing tasks (one per
(model, plan, feature-set) point).  :func:`run_tasks` fans them out over
worker processes and merges results **in insertion order**, so the output
is deterministic and bit-for-bit identical to the serial path — the cost
models are pure, and ordering is the only other source of divergence.

``workers=0`` (the default everywhere) runs serially in-process: no
pickling requirements, no process startup, and exact reproducibility for
tests.  ``workers>0`` requires ``fn`` and the items to be picklable
(module-level functions, ``functools.partial`` of them, and the repro
dataclasses all are).

Either way the call returns ``(results, SweepStats)``: counters of the
memoized cost models (:mod:`repro.exec.memo`) are snapshotted around each
task, and the per-task deltas are summed across processes, so the report
reflects exactly the reuse this sweep achieved.

A cross-run :class:`~repro.exec.memo.PersistentMemo` can short-circuit
whole tasks: pass ``cache=`` plus a ``cache_key(item) -> str`` function
and any item already priced by an earlier invocation is answered from
disk without running at all (``SweepStats.persistent_hits``).  Freshly
computed results are stored back; the caller flushes the memo.

With a :class:`~repro.observability.TelemetryHub` as ``hub`` each
candidate also lands as a span on the ``exec`` trace lane.  Sweep tasks
run in wall-clock (not simulated) time, which would break byte-identical
traces, so the lane uses a deterministic pseudo-time axis: task ``i``
occupies ``[i, i+1)`` with its memo hit/miss deltas as span attributes.
Deltas arrive in submission order from both the serial and the parallel
path, so the merged counters are identical either way.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

from .memo import PersistentMemo, Snapshot, cache_delta, cache_snapshot, merge_deltas
from .stats import SweepStats

T = TypeVar("T")
R = TypeVar("R")

TaskOutcome = Tuple[Any, Snapshot]


def _call_with_stats(fn: Callable[[T], R], item: T) -> TaskOutcome:
    """Run one task and return (result, counter delta).

    Top-level so it pickles; executed inside the worker process, where a
    task runs alone on the process's single task thread, so the
    before/after snapshot delta is attributable to this task.
    """
    before = cache_snapshot()
    result = fn(item)
    return result, cache_delta(before, cache_snapshot())


@dataclass(frozen=True)
class SweepExecutor:
    """Maps a pricing function over sweep points, serially or in processes.

    ``workers=0`` is the serial in-process path; ``workers=n`` fans out
    over an ``n``-process pool.  Results always come back in the items'
    insertion order.
    """

    workers: int = 0

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")

    def map(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        hub=None,
        cache: Optional[PersistentMemo] = None,
        cache_key: Optional[Callable[[T], str]] = None,
    ) -> Tuple[List[R], SweepStats]:
        """``([fn(x) for x in items], SweepStats)``, possibly in parallel."""
        if (cache is None) != (cache_key is None):
            raise ValueError("cache and cache_key must be passed together")
        todo: Sequence[T] = list(items)
        if not todo:
            return [], SweepStats(n_tasks=0, workers=self.workers)

        # Cross-run persistent lookups first: items already priced by an
        # earlier invocation never reach a worker.
        cached: Dict[int, R] = {}
        if cache is not None and cache_key is not None:
            sentinel = object()
            for i, item in enumerate(todo):
                value = cache.get(cache_key(item), sentinel)
                if value is not sentinel:
                    cached[i] = value
        pending = [(i, item) for i, item in enumerate(todo) if i not in cached]

        if self.workers == 0:
            outcomes = [_call_with_stats(fn, item) for _, item in pending]
        else:
            outcomes = self._run_parallel(fn, [item for _, item in pending])

        merged: List[R] = [None] * len(todo)  # type: ignore[list-item]
        for (i, item), (result, _) in zip(pending, outcomes):
            merged[i] = result
            if cache is not None and cache_key is not None:
                cache.put(cache_key(item), result)
        for i, value in cached.items():
            merged[i] = value

        deltas = [delta for _, delta in outcomes]
        if hub is not None:
            self._emit_telemetry(hub, todo, pending, deltas, len(cached))
        return merged, SweepStats.from_counters(
            merge_deltas(deltas), len(todo), self.workers, persistent_hits=len(cached)
        )

    def _run_parallel(self, fn: Callable[[T], R], items: Sequence[T]) -> List[TaskOutcome]:
        if not items:
            return []
        with concurrent.futures.ProcessPoolExecutor(max_workers=self.workers) as pool:
            futures = [pool.submit(_call_with_stats, fn, item) for item in items]
            # Collect in submission order, not completion order: the
            # merge is deterministic regardless of worker scheduling.
            return [f.result() for f in futures]

    def _emit_telemetry(
        self,
        hub,
        items: Sequence[T],
        pending: Sequence[Tuple[int, T]],
        deltas: List[Snapshot],
        persistent_hits: int,
    ) -> None:
        executed = {i: delta for (i, _), delta in zip(pending, deltas)}
        for i, item in enumerate(items):
            delta = executed.get(i)
            from_cache = delta is None
            hits = sum(h for h, _, _ in delta.values()) if delta else 0
            misses = sum(m for _, m, _ in delta.values()) if delta else 0
            hub.span(
                "exec",
                f"candidate[{type(item).__name__}]",
                rank=i % self.workers if self.workers else 0,
                start=float(i),
                end=float(i + 1),
                stream="sweep",
                task=i,
                memo_hits=hits,
                memo_misses=misses,
                cached=from_cache,
            )
            if delta:
                for name, (h, m, _) in sorted(delta.items()):
                    hub.count("exec", "memo_hits", h, cache=name)
                    hub.count("exec", "memo_misses", m, cache=name)
        hub.count("exec", "tasks", len(items))
        if persistent_hits:
            hub.count("exec", "persistent_hits", persistent_hits)


def run_tasks(
    fn: Callable[[T], R],
    items: Iterable[T],
    workers: int = 0,
    hub=None,
    cache: Optional[PersistentMemo] = None,
    cache_key: Optional[Callable[[T], str]] = None,
) -> Tuple[List[R], SweepStats]:
    """Functional shorthand for ``SweepExecutor(workers).map(fn, items)``."""
    return SweepExecutor(workers=workers).map(
        fn, items, hub=hub, cache=cache, cache_key=cache_key
    )


__all__ = ["SweepExecutor", "run_tasks"]
