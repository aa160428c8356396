"""A uniform read-side view over live hubs and saved trace documents.

The diagnosis layers never touch a :class:`TelemetryHub` directly; they
query a :class:`TelemetryView`, which is built from a Chrome-trace
document and its metrics records: a live hub's own export, or a
``trace.json`` + ``trace.metrics.jsonl`` pair on disk.  Post-mortem
diagnosis of a saved hub therefore reads the same events as live
diagnosis.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

from ...sim.trace import Span
from ..export import (
    gauge_series_from_records,
    lane_subsystems,
    load_metrics_records,
    load_trace_document,
)
from ..telemetry import Instant

_US = 1e6


class TelemetryView:
    """Immutable spans / instants / gauge series, queryable by subsystem."""

    def __init__(
        self,
        spans: Dict[str, List[Span]],
        instants: List[Instant],
        gauges: Dict[str, List[Tuple[float, float]]],
    ) -> None:
        self._spans = {
            sub: sorted(items, key=lambda s: (s.start, s.rank, s.name))
            for sub, items in spans.items()
        }
        self._instants = sorted(instants, key=lambda i: (i.ts, i.subsystem, i.name))
        self._gauges = {name: sorted(series) for name, series in gauges.items()}

    # -- construction ------------------------------------------------------

    @classmethod
    def from_hub(cls, hub) -> "TelemetryView":
        """The view of a live hub, read from the document it would save."""
        return cls.from_document(hub.to_chrome_trace(), hub.metrics.records())

    @classmethod
    def from_document(
        cls, document: dict, metrics_records: Optional[List[dict]] = None
    ) -> "TelemetryView":
        """Rebuild the view from an exported Chrome-trace document.

        Gauge series are reconstructed from the 'C' counter events; when
        ``metrics_records`` (the parsed ``.metrics.jsonl`` sidecar) is
        given, its full-series gauge export takes precedence.
        """
        subsystems = lane_subsystems(document)
        spans: Dict[str, List[Span]] = {}
        instants: List[Instant] = []
        gauges: Dict[str, List[Tuple[float, float]]] = {}
        for event in document.get("traceEvents", []):
            ph = event.get("ph")
            if ph == "M":
                continue
            pid = event.get("pid", 0)
            subsystem = subsystems.get(pid, f"pid {pid}")
            ts = event.get("ts", 0.0) / _US
            if ph == "X":
                spans.setdefault(subsystem, []).append(
                    Span(
                        event.get("name", ""),
                        event.get("tid", 0),
                        ts,
                        ts + event.get("dur", 0.0) / _US,
                        event.get("cat", "default"),
                        tuple(sorted(event.get("args", {}).items())),
                    )
                )
            elif ph == "i":
                instants.append(
                    Instant(
                        subsystem,
                        event.get("name", ""),
                        ts,
                        event.get("tid", 0),
                        tuple(sorted(event.get("args", {}).items())),
                    )
                )
            elif ph == "C":
                value = event.get("args", {}).get("value", 0.0)
                gauges.setdefault(event.get("name", ""), []).append((ts, float(value)))
        if metrics_records:
            gauges.update(gauge_series_from_records(metrics_records))
        return cls(spans, instants, gauges)

    @classmethod
    def from_files(
        cls, trace_path: str, metrics_path: Optional[str] = None
    ) -> "TelemetryView":
        """Load a saved session; auto-discovers the metrics sidecar."""
        document = load_trace_document(trace_path)
        if metrics_path is None:
            if trace_path.endswith(".json"):
                candidate = trace_path[: -len(".json")] + ".metrics.jsonl"
            else:
                candidate = trace_path + ".metrics.jsonl"
            if os.path.exists(candidate):
                metrics_path = candidate
        records = load_metrics_records(metrics_path) if metrics_path else None
        return cls.from_document(document, metrics_records=records)

    # -- queries -----------------------------------------------------------

    def spans(self, subsystem: str, name: Optional[str] = None) -> List[Span]:
        items = self._spans.get(subsystem, [])
        if name is None:
            return list(items)
        return [s for s in items if s.name == name]

    def instants(
        self, subsystem: Optional[str] = None, name: Optional[str] = None
    ) -> List[Instant]:
        return [
            i
            for i in self._instants
            if (subsystem is None or i.subsystem == subsystem)
            and (name is None or i.name == name)
        ]

    def gauge(self, name: str) -> List[Tuple[float, float]]:
        return list(self._gauges.get(name, []))

    def end_time(self) -> float:
        """Latest timestamp anywhere in the view."""
        end = 0.0
        for items in self._spans.values():
            for span in items:
                end = max(end, span.end)
        for inst in self._instants:
            end = max(end, inst.ts)
        for series in self._gauges.values():
            if series:
                end = max(end, series[-1][0])
        return end
