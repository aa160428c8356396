"""Observability tools: CUDA-event timers, heat maps, timelines, 3D viz."""

from .. import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "cuda_events": ("SEGMENTS", "CudaEventTimer", "EventStreamer"),
    "diagnosis.engine": (
        "DiagnosisEngine", "DiagnosisReport", "Finding", "diagnose_files", "diagnose_hub",
    ),
    "diagnosis.view": ("TelemetryView",),
    "export": (
        "dump_telemetry",
        "hub_to_chrome_trace",
        "lane_recorder",
        "lane_summary",
        "load_trace_document",
    ),
    "hang": ("localize_hang", "simulate_timeout_logs"),
    "heatmap": ("analyze", "consistent_peak_mfu", "render_ascii", "straggler_machines"),
    "mfu_analysis": ("attribute_decline", "launch_skew_trend"),
    "monitors": ("HealthFinding", "MillisecondMonitor", "SecondLevelMonitor"),
    "report": ("diagnose",),
    "telemetry": ("SUBSYSTEM_LANES", "MetricsRegistry", "PercentileDigest", "TelemetryHub"),
    "timeline": ("DistributedTimeline",),
    "viz3d": ("DependencyGraph", "rank_view", "render"),
})
