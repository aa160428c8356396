"""Recovery accounting (§4.1, §6.3).

Collects per-incident records and computes the paper's operational
metrics: detection+diagnosis time (< 10 min), catch-up time (< 15 min),
and the effective-training-time rate (> 90%).  Degraded-mode extensions
track elastic DP-shrink intervals (spare-pool exhaustion) and the extra
iterations lost to N−1 checkpoint fallbacks, so the effective rate
prices shrunken epochs and corrupt-checkpoint retries honestly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .faults import FaultEvent


@dataclass(frozen=True)
class RecoveryRecord:
    """Timeline of one fault-to-resume incident."""

    fault: FaultEvent
    detected_at: float
    diagnosed_at: float
    resumed_at: float
    auto: bool  # handled without human intervention
    lost_iterations: int  # progress rolled back to the last checkpoint
    # Degraded-mode bookkeeping (all default to the happy path):
    fallback_load: bool = False  # had to load the N-1 checkpoint
    extra_lost_iterations: int = 0  # additional rollback from the fallback
    replanned_dp: Optional[int] = None  # elastic shrink chosen this incident
    nodes_lost: int = 1  # blast radius (correlated faults hit many)
    spares_consumed: int = 0

    def __post_init__(self) -> None:
        if not self.fault.time <= self.detected_at <= self.diagnosed_at <= self.resumed_at:
            raise ValueError("recovery timeline must be monotone")
        if self.lost_iterations < 0 or self.extra_lost_iterations < 0:
            raise ValueError("lost iterations must be non-negative")

    @property
    def detection_time(self) -> float:
        return self.detected_at - self.fault.time

    @property
    def diagnosis_time(self) -> float:
        return self.diagnosed_at - self.detected_at

    @property
    def downtime(self) -> float:
        return self.resumed_at - self.fault.time

    @property
    def total_lost_iterations(self) -> int:
        return self.lost_iterations + self.extra_lost_iterations


@dataclass
class DegradedInterval:
    """A stretch of the run trained at a shrunken data-parallel degree.

    While open (``end is None``) the interval extends to "now"; the run
    closes it when a further shrink happens or the run finishes.  The
    throughput factor is the fraction of healthy tokens-per-iteration the
    shrunken plan sustains (per-replica batch held constant, so the
    global batch — and the epoch — shrinks with DP).
    """

    start: float
    dp: int
    healthy_dp: int
    reason: str = ""
    end: Optional[float] = None

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError("interval start must be non-negative")
        if not 1 <= self.dp <= self.healthy_dp:
            raise ValueError("degraded dp must be in [1, healthy_dp]")
        if self.end is not None and self.end < self.start:
            raise ValueError("interval end precedes start")

    @property
    def throughput_factor(self) -> float:
        return self.dp / self.healthy_dp

    def duration(self, now: Optional[float] = None) -> float:
        stop = self.end if self.end is not None else now
        if stop is None:
            raise ValueError("open interval needs an explicit 'now'")
        return max(0.0, stop - self.start)


@dataclass
class RecoveryLog:
    """All incidents of one production run, plus degraded-mode intervals."""

    records: List[RecoveryRecord] = field(default_factory=list)
    degraded: List[DegradedInterval] = field(default_factory=list)

    def add(self, record: RecoveryRecord) -> None:
        self.records.append(record)

    def add_degraded(self, interval: DegradedInterval) -> None:
        """Open a new degraded interval, closing any still-open one."""
        self.close_degraded(interval.start)
        self.degraded.append(interval)

    def close_degraded(self, at: float) -> None:
        if self.degraded and self.degraded[-1].end is None:
            self.degraded[-1].end = max(self.degraded[-1].start, at)

    def auto_fraction(self) -> float:
        if not self.records:
            return 1.0
        return sum(1 for r in self.records if r.auto) / len(self.records)

    def mean_downtime(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.downtime for r in self.records) / len(self.records)

    def total_downtime(self) -> float:
        return sum(r.downtime for r in self.records)

    # -- degraded-mode accounting ------------------------------------------

    def fallback_loads(self) -> int:
        return sum(1 for r in self.records if r.fallback_load)

    def total_lost_iterations(self) -> int:
        return sum(r.total_lost_iterations for r in self.records)

    def effective_training_rate(self, iteration_time: float, wall_time: float) -> float:
        """Accounting estimate of the effective rate over ``[0, wall_time]``.

        Wall time minus restart downtime, minus the capacity lost to
        shrunken-DP intervals, minus rolled-back iterations (including
        checkpoint-fallback extras) valued at the healthy rate — all as a
        fraction of wall time.  The measured rate from an actual run
        (weighted iterations × iteration time / wall) should track this.
        """
        if iteration_time <= 0 or wall_time <= 0:
            raise ValueError("iteration_time and wall_time must be positive")
        downtime = sum(min(r.resumed_at, wall_time) - min(r.fault.time, wall_time)
                       for r in self.records)
        shrink_loss = sum(
            (1.0 - i.throughput_factor) * i.duration(wall_time) for i in self.degraded
        )
        rollback = self.total_lost_iterations() * iteration_time
        return max(0.0, wall_time - downtime - shrink_loss - rollback) / wall_time


def effective_training_rate(
    completed_iterations: float, iteration_time: float, wall_time: float
) -> float:
    """iterations x iteration time / total wall time (paper definition).

    ``completed_iterations`` may be fractional: elastic runs weight each
    iteration by its shrunken-epoch token fraction.
    """
    if wall_time <= 0 or iteration_time <= 0 or completed_iterations < 0:
        raise ValueError("invalid effective-rate inputs")
    return completed_iterations * iteration_time / wall_time
