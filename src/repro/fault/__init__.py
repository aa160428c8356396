"""Fault tolerance: faults, detection latency, diagnostics, recovery."""

from .. import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "checkpoint": (
        "FLAKY_HDFS",
        "CheckpointPlanner",
        "HdfsModel",
        "RetryPolicy",
        "ShardIntegrityModel",
        "lost_progress",
    ),
    "diagnostics": ("DiagnosticSuite",),
    "domains": (
        "LEAF_LINK_FAULT",
        "RACK_POWER_FAULT",
        "TOR_SWITCH_FAULT",
        "CorrelatedFaultInjector",
        "DomainTopology",
    ),
    "driver": (
        "LiveMonitors",
        "ProductionRun",
        "ProductionRunConfig",
        "ProductionRunResult",
        "catch_up_time",
        "default_loss_curve",
    ),
    "elastic": ("shrunk_dp",),
    "faults": (
        "FAULT_CATALOG",
        "FaultEvent",
        "FaultInjector",
        "FaultKind",
        "Manifestation",
        "detection_latency",
    ),
    "interval": ("plan_interval",),
    "recovery": ("DegradedInterval", "RecoveryLog", "RecoveryRecord", "effective_training_rate"),
})
