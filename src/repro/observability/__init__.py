"""Observability tools: CUDA-event timers, heat maps, timelines, 3D viz."""

from .cuda_events import SEGMENTS, CudaEventTimer, EventRecord, EventStreamer
from .hang import HangDiagnosis, localize_hang, simulate_timeout_logs
from .heatmap import (
    HeatmapResult,
    analyze,
    consistent_peak_mfu,
    render_ascii,
    straggler_machines,
)
from .mfu_analysis import (
    DeclineAttribution,
    SegmentTrend,
    attribute_decline,
    launch_skew_trend,
    segment_trends,
)
from .export import (
    dump_telemetry,
    hub_to_chrome_trace,
    lane_recorder,
    lane_summary,
    load_trace_document,
)
from .diagnosis import (
    DiagnosisEngine,
    DiagnosisReport,
    Finding,
    TelemetryView,
    diagnose_files,
    diagnose_hub,
)
from .monitors import HealthFinding, MillisecondMonitor, SecondLevelMonitor
from .report import TimerReport, diagnose
from .telemetry import (
    SUBSYSTEM_LANES,
    Instant,
    MetricsRegistry,
    PercentileDigest,
    TelemetryHub,
)
from .timeline import DistributedTimeline, TimelineEvent
from .viz3d import DependencyGraph, RankView, rank_view, render

__all__ = [
    "CudaEventTimer",
    "DeclineAttribution",
    "DependencyGraph",
    "TimerReport",
    "DiagnosisEngine",
    "DiagnosisReport",
    "Finding",
    "TelemetryView",
    "diagnose_files",
    "diagnose_hub",
    "Instant",
    "MetricsRegistry",
    "PercentileDigest",
    "SUBSYSTEM_LANES",
    "TelemetryHub",
    "dump_telemetry",
    "hub_to_chrome_trace",
    "lane_recorder",
    "lane_summary",
    "load_trace_document",
    "diagnose",
    "DistributedTimeline",
    "EventRecord",
    "EventStreamer",
    "HangDiagnosis",
    "HealthFinding",
    "MillisecondMonitor",
    "SecondLevelMonitor",
    "HeatmapResult",
    "RankView",
    "SEGMENTS",
    "SegmentTrend",
    "TimelineEvent",
    "analyze",
    "attribute_decline",
    "consistent_peak_mfu",
    "launch_skew_trend",
    "localize_hang",
    "rank_view",
    "render",
    "render_ascii",
    "segment_trends",
    "simulate_timeout_logs",
    "straggler_machines",
]
