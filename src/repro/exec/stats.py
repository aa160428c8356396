"""Execution statistics for sweep runs: the ``SweepStats`` report."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple


@dataclass(frozen=True)
class CacheReport:
    """Hit/miss/eviction counts of one cost-model cache over one sweep."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def calls(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.calls if self.calls else 0.0


@dataclass(frozen=True)
class SweepStats:
    """How a sweep executed: task fan-out and cost-model cache reuse.

    ``caches`` maps cache name (e.g. ``"block_cost"``) to the
    hit/miss/eviction counts accumulated *by this sweep's tasks only* —
    the executor snapshots counters around each task, so concurrent or
    prior users of the caches don't pollute the report.
    ``persistent_hits`` counts tasks answered from a cross-run
    :class:`~repro.exec.memo.PersistentMemo` without executing at all.
    """

    n_tasks: int
    workers: int  # 0 means the serial in-process path
    caches: Dict[str, CacheReport] = field(default_factory=dict)
    persistent_hits: int = 0

    @property
    def hits(self) -> int:
        return sum(c.hits for c in self.caches.values())

    @property
    def misses(self) -> int:
        return sum(c.misses for c in self.caches.values())

    @property
    def calls(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Aggregate cost-model cache hit rate across all caches."""
        return self.hits / self.calls if self.calls else 0.0

    def describe(self) -> str:
        mode = "serial" if self.workers == 0 else f"{self.workers} workers"
        header = (
            f"sweep: {self.n_tasks} tasks ({mode}), "
            f"cost-model cache hit rate {self.hit_rate:.1%} "
            f"({self.hits}/{self.calls} calls)"
        )
        if self.persistent_hits:
            header += f", {self.persistent_hits} served from the persistent cache"
        lines = [header]
        for name in sorted(self.caches):
            c = self.caches[name]
            line = (
                f"  {name:<20s} {c.hits:>6d} hits {c.misses:>6d} misses "
                f"({c.hit_rate:.1%})"
            )
            if c.evictions:
                line += f" {c.evictions} evicted"
            lines.append(line)
        return "\n".join(lines)

    @staticmethod
    def from_counters(
        counters: Mapping[str, Tuple[int, int, int]],
        n_tasks: int,
        workers: int,
        persistent_hits: int = 0,
    ) -> "SweepStats":
        """Build a report from ``{name: (hits, misses, evictions)}`` deltas."""
        return SweepStats(
            n_tasks=n_tasks,
            workers=workers,
            caches={name: CacheReport(*counts) for name, counts in counters.items()},
            persistent_hits=persistent_hits,
        )
