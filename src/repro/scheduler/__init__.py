"""Multi-job cluster scheduling: spare-pool arbitration, preemption,
and graceful degradation under multi-tenant chaos.

The paper's cluster is a shared service: concurrent training jobs are
placed topology-aware onto one fabric, contend for ToR uplinks, and —
during correlated incidents — for one finite spare pool.  This package
adds the control plane over :class:`~repro.hardware.cluster.Cluster`:

* :mod:`repro.scheduler.job` — job specs and runtime state
* :mod:`repro.scheduler.placement` — topology-aware placement and the
  cross-job ECMP contention factor
* :mod:`repro.scheduler.spare_pool` — the deterministic spare broker
* :mod:`repro.scheduler.scheduler` — the event loop, degradation ladder
  and cluster-wide goodput report
* :mod:`repro.scheduler.scenarios` — the multi-tenant chaos scenario
"""

from .job import JobSpec, JobState, JobStatus
from .placement import PlacementError, PlacementMap
from .scheduler import (
    ClusterScheduler,
    GoodputSegment,
    JobSummary,
    MultiJobReport,
    SchedulerConfig,
    SchedulerDecision,
)
from .scenarios import build_scheduler, run_policy
from .spare_pool import ARBITRATION_POLICIES, SpareClaim, SpareGrant, SparePool

__all__ = [
    "ARBITRATION_POLICIES",
    "ClusterScheduler",
    "GoodputSegment",
    "JobSpec",
    "JobState",
    "JobStatus",
    "JobSummary",
    "MultiJobReport",
    "PlacementError",
    "PlacementMap",
    "SchedulerConfig",
    "SchedulerDecision",
    "SpareClaim",
    "SpareGrant",
    "SparePool",
    "build_scheduler",
    "run_policy",
]
