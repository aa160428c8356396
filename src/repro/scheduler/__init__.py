"""Multi-job cluster scheduling: spare-pool arbitration, preemption,
and graceful degradation under multi-tenant chaos.

The paper's cluster is a shared service: concurrent training jobs are
placed topology-aware onto one fabric, contend for ToR uplinks, and —
during correlated incidents — for one finite spare pool.  This package
is the control plane over a cluster of node indices (the index space of
:class:`~repro.fault.domains.DomainTopology`) and a count of spares:

* :mod:`repro.scheduler.job` — job specs and runtime state
* :mod:`repro.scheduler.placement` — topology-aware placement and the
  cross-job ECMP contention factor
* :mod:`repro.scheduler.spare_pool` — the deterministic spare broker
* :mod:`repro.scheduler.scheduler` — the event loop, degradation ladder
  and cluster-wide goodput report
* :mod:`repro.scheduler.scenarios` — the multi-tenant chaos scenario
"""

from .. import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "job": ("JobSpec", "JobState"),
    "placement": ("PlacementMap",),
    "scheduler": ("ClusterScheduler", "MultiJobReport", "SchedulerConfig"),
    "scenarios": ("run_policy",),
    "spare_pool": ("SpareClaim", "SparePool"),
})
