"""Job specifications and runtime state for the multi-job scheduler.

The paper's cluster is a shared service: many training jobs co-exist on
one fabric, contend for ToR uplinks, and — during correlated incidents —
for the same spare pool.  A :class:`JobSpec` is the immutable submission
(parallel plan, scheduling priority, goodput weight); a :class:`JobStatus`
is the scheduler's mutable view of that job while the multi-tenant
timeline plays out (current plan, degradation and backoff state; node
assignment lives in :class:`~repro.scheduler.placement.PlacementMap`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..parallel.plan import ParallelPlan


class JobState(enum.Enum):
    """Lifecycle of a scheduled job."""

    PENDING = "pending"  # submitted, not yet placed
    RUNNING = "running"  # training at its healthy DP degree
    DEGRADED = "degraded"  # training at a shrunken DP degree
    PREEMPTED = "preempted"  # capacity reclaimed by a higher-priority job
    STALLED = "stalled"  # waiting on fresh machines (bounded, never forever)


@dataclass(frozen=True)
class JobSpec:
    """One tenant's training job as submitted to the cluster queue.

    ``priority`` orders spare arbitration and selects preemption victims
    (higher wins); ``weight`` is the job's contribution to cluster-wide
    goodput (Σ effective-training-rate × weight).  The two are distinct
    on purpose: a cheap-but-urgent job can outrank a heavy one.
    """

    name: str
    plan: ParallelPlan
    priority: int = 0
    weight: float = 1.0
    gpus_per_node: int = 8
    preemptible: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("job needs a name")
        if self.weight <= 0:
            raise ValueError("goodput weight must be positive")
        if self.gpus_per_node < 1:
            raise ValueError("gpus_per_node must be >= 1")
        if self.plan.world_size % self.gpus_per_node != 0:
            raise ValueError(
                f"world size {self.plan.world_size} does not pack onto "
                f"{self.gpus_per_node}-GPU nodes"
            )

    @property
    def n_nodes(self) -> int:
        return self.plan.world_size // self.gpus_per_node

    @property
    def min_nodes(self) -> int:
        """Smallest host count the job can shrink to (dp=1, layout fixed)."""
        model_parallel = self.plan.tp * self.plan.pp
        return -(-model_parallel // self.gpus_per_node)


@dataclass
class JobStatus:
    """The scheduler's live view of one job."""

    spec: JobSpec
    plan: ParallelPlan  # current (possibly shrunken) plan
    state: JobState = JobState.PENDING
    down_until: float = 0.0  # restarting / re-initializing until then
    slow_until: float = 0.0  # silently degraded (leaf-link) until then
    slow_factor: float = 1.0  # throughput factor while slow_until is active
    contention: float = 1.0  # cross-job ECMP sharing factor (<= 1)
    retries: int = 0  # consecutive failed regrow/re-place attempts
    backoff: float = 0.0  # current retry backoff (seconds)
    incidents: int = 0
    preemptions: int = 0  # times this job was preempted
    stall_seconds: float = 0.0

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def healthy_dp(self) -> int:
        return self.spec.plan.dp

    def rate(self, now: float) -> float:
        """Effective training rate in [0, 1] relative to the healthy plan.

        Zero while down, preempted or stalled; the DP fraction times the
        cross-job contention factor (and any active silent degradation)
        otherwise.
        """
        if self.state in (JobState.PENDING, JobState.PREEMPTED, JobState.STALLED):
            return 0.0
        if now < self.down_until:
            return 0.0
        rate = (self.plan.dp / self.healthy_dp) * self.contention
        if now < self.slow_until:
            rate *= self.slow_factor
        return rate
