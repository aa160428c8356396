"""Fault tolerance: faults, detection latency, diagnostics, recovery."""

from .checkpoint import (
    FLAKY_HDFS,
    CheckpointCost,
    CheckpointLoadOutcome,
    CheckpointPlanner,
    CheckpointSaveOutcome,
    HdfsModel,
    RetryPolicy,
    ShardIntegrityModel,
    lost_progress,
)
from .diagnostics import DiagnosticSuite
from .domains import (
    DEFAULT_DOMAINS,
    LEAF_LINK_FAULT,
    RACK_POWER_FAULT,
    TOR_SWITCH_FAULT,
    CorrelatedFaultInjector,
    DomainTopology,
    FaultDomain,
)
from .driver import (
    IncidentOutcome,
    LiveMonitors,
    ProductionRun,
    ProductionRunConfig,
    ProductionRunResult,
    catch_up_time,
    default_loss_curve,
)
from .elastic import ElasticDecision, shrunk_dp
from .faults import (
    FAULT_CATALOG,
    FaultEvent,
    FaultInjector,
    FaultKind,
    Manifestation,
    auto_detectable_fraction,
    detection_latency,
)
from .interval import IntervalPlan, expected_overhead_fraction, plan_interval, young_daly_interval
from .recovery import DegradedInterval, RecoveryLog, RecoveryRecord, effective_training_rate

__all__ = [
    "CheckpointCost",
    "CheckpointLoadOutcome",
    "CheckpointPlanner",
    "CheckpointSaveOutcome",
    "CorrelatedFaultInjector",
    "DEFAULT_DOMAINS",
    "DegradedInterval",
    "DiagnosticSuite",
    "DomainTopology",
    "ElasticDecision",
    "FAULT_CATALOG",
    "FLAKY_HDFS",
    "FaultDomain",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "HdfsModel",
    "IncidentOutcome",
    "IntervalPlan",
    "LiveMonitors",
    "LEAF_LINK_FAULT",
    "RACK_POWER_FAULT",
    "TOR_SWITCH_FAULT",
    "Manifestation",
    "ProductionRun",
    "ProductionRunConfig",
    "ProductionRunResult",
    "RecoveryLog",
    "RecoveryRecord",
    "RetryPolicy",
    "ShardIntegrityModel",
    "auto_detectable_fraction",
    "catch_up_time",
    "default_loss_curve",
    "detection_latency",
    "effective_training_rate",
    "lost_progress",
    "shrunk_dp",
    "expected_overhead_fraction",
    "plan_interval",
    "young_daly_interval",
]
