"""The end-to-end telemetry hub (§4–§5: "in-depth observability").

The paper argues that operating 10k-GPU training hinges on seeing what
every subsystem did after the fact: CUDA-event timers on every rank,
second- and millisecond-level network monitors, and a timeline UI that
localizes stragglers and hangs.  This module is the collection point all
of that feeds into:

* :class:`MetricsRegistry` — counters, gauge time-series, and streaming
  percentile digests, keyed by name + labels.
* :class:`TelemetryHub` — the one simulated-time trace object: one
  :class:`~repro.sim.trace.TraceRecorder` per subsystem on a stable
  Chrome-trace ``pid`` lane, instant events (faults, health findings,
  flaps) and a :class:`MetricsRegistry`, behind one tiny API that the
  hot paths call through an optional ``hub=`` parameter: training
  iterations, collective executions, network experiments, fault
  recoveries and sweep tasks all emit into the same hub, which exports
  the Chrome-trace document and reads back as a diagnosis view.

Everything recorded here is a pure function of the simulation inputs —
no wall clocks, no unordered iteration — so the exported document is
byte-identical across runs of the same seed.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..sim.trace import Span, TraceRecorder

# Fixed Chrome-trace pid lanes, one per subsystem; unknown subsystems
# get the next free pid in registration order (still deterministic).
SUBSYSTEM_LANES: Dict[str, int] = {
    "training": 1,
    "collectives": 2,
    "network": 3,
    "fault": 4,
    "exec": 5,
    "monitor": 6,
    "scheduler": 7,
}

LabelItems = Tuple[Tuple[str, Any], ...]


def _json_safe(value: Any) -> Any:
    """Coerce numpy scalars (and the odd stray object) to JSON types."""
    if hasattr(value, "item"):  # numpy scalar (incl. np.float64, a float subclass)
        return value.item()
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


def _label_key(labels: Dict[str, Any]) -> LabelItems:
    return tuple(sorted((k, _json_safe(v)) for k, v in labels.items()))


@dataclass(frozen=True)
class Instant:
    """A zero-duration trace event (fault arrival, finding, flap...)."""

    subsystem: str
    name: str
    ts: float
    rank: int = 0
    attrs: LabelItems = ()


class PercentileDigest:
    """A streaming percentile sketch with bounded, deterministic memory.

    Values are kept as sorted ``[value, weight]`` centroids; when the
    centroid count exceeds ``max_centroids`` adjacent pairs are merged
    (weighted mean), which compresses deterministically regardless of
    arrival order of equal inputs.
    """

    def __init__(self, max_centroids: int = 256) -> None:
        if max_centroids < 8:
            raise ValueError("max_centroids must be >= 8")
        self.max_centroids = max_centroids
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._centroids: List[List[float]] = []  # sorted [value, weight]

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        insort(self._centroids, [value, 1.0])
        if len(self._centroids) > self.max_centroids:
            self._compress()

    def _compress(self) -> None:
        merged: List[List[float]] = []
        it = iter(self._centroids)
        for a in it:
            b = next(it, None)
            if b is None:
                merged.append(a)
                break
            w = a[1] + b[1]
            merged.append([(a[0] * a[1] + b[0] * b[1]) / w, w])
        self._centroids = merged

    def merge(self, other: "PercentileDigest") -> "PercentileDigest":
        """Fold ``other``'s observations into this digest (returns self).

        ``count``/``total``/``min``/``max`` stay exact, so ``mean`` and the
        q=0/q=1 extremes survive any merge tree unchanged.  Centroids are
        re-sorted by (value, weight) before compression, so A.merge(B)
        and B.merge(A) produce identical sketches — merge is commutative
        and, up to compression tolerance on interior quantiles,
        associative.  ``other`` is never mutated; merging an empty digest
        is the identity.  The merged digest keeps ``self.max_centroids``.
        """
        if other.count == 0:
            return self
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        # Copy the incoming centroid pairs: digests must not share the
        # (mutable) [value, weight] cells after a merge.
        self._centroids = sorted(
            self._centroids + [[value, weight] for value, weight in other._centroids]
        )
        while len(self._centroids) > self.max_centroids:
            self._compress()
        return self

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The value at quantile ``q`` in [0, 1] (0.5 = median).

        The extremes are exact: ``percentile(0.0)`` / ``percentile(1.0)``
        return the tracked ``min`` / ``max`` (after compression the edge
        centroids are weighted means, so walking the sketch would report
        p100 < max).  Interior results are clamped to ``[min, max]``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if not self._centroids:
            return 0.0
        if q == 0.0:
            return self.min
        if q == 1.0:
            return self.max
        target = q * self.count
        seen = 0.0
        for value, weight in self._centroids:
            seen += weight
            if seen >= target:
                return min(max(value, self.min), self.max)
        return min(max(self._centroids[-1][0], self.min), self.max)


class MetricsRegistry:
    """Counters, gauge time-series and percentile digests by name+labels."""

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelItems], float] = {}
        self._gauges: Dict[Tuple[str, LabelItems], List[Tuple[float, float]]] = {}
        self._digests: Dict[Tuple[str, LabelItems], PercentileDigest] = {}

    # -- recording ---------------------------------------------------------

    def inc(self, name: str, amount: float = 1.0, **labels: Any) -> float:
        if amount < 0:
            raise ValueError("counters are monotone; use a gauge for decrements")
        key = (name, _label_key(labels))
        self._counters[key] = self._counters.get(key, 0.0) + float(amount)
        return self._counters[key]

    def sample(self, name: str, t: float, value: float, **labels: Any) -> None:
        """Append one (time, value) gauge sample."""
        key = (name, _label_key(labels))
        self._gauges.setdefault(key, []).append((float(t), float(value)))

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Feed one value into the named percentile digest."""
        key = (name, _label_key(labels))
        digest = self._digests.get(key)
        if digest is None:
            digest = self._digests[key] = PercentileDigest()
        digest.observe(value)

    # -- queries -----------------------------------------------------------

    def gauges(self) -> List[Tuple[str, LabelItems, List[Tuple[float, float]]]]:
        """All gauge series, sorted by (name, labels) for stable export."""
        return [
            (name, labels, list(series))
            for (name, labels), series in sorted(self._gauges.items())
        ]

    # -- export ------------------------------------------------------------

    def records(self) -> List[dict]:
        """One JSON-ready record per metric, deterministically ordered.

        Gauge records carry the **full** ``series`` (list of ``[t, value]``
        pairs), not just the sample count and last value — the anomaly
        detectors of :mod:`repro.observability.diagnosis` run on a saved
        ``.metrics.jsonl`` sidecar exactly as they would on a live hub.
        """
        out: List[dict] = []
        for (name, labels), value in sorted(self._counters.items()):
            out.append(
                {"kind": "counter", "name": name, "labels": dict(labels), "value": value}
            )
        for (name, labels), series in sorted(self._gauges.items()):
            out.append(
                {
                    "kind": "gauge",
                    "name": name,
                    "labels": dict(labels),
                    "samples": len(series),
                    "last": series[-1][1] if series else None,
                    "series": [[t, v] for t, v in series],
                }
            )
        for (name, labels), digest in sorted(self._digests.items()):
            out.append(
                {
                    "kind": "digest",
                    "name": name,
                    "labels": dict(labels),
                    "count": digest.count,
                    "mean": digest.mean,
                    "min": digest.min if digest.count else None,
                    "max": digest.max if digest.count else None,
                    "p50": digest.percentile(0.50),
                    "p95": digest.percentile(0.95),
                    "p99": digest.percentile(0.99),
                }
            )
        return out


class TelemetryHub:
    """One collection point for spans, instants and metrics from every
    subsystem.  Pass a hub through the optional ``hub=`` parameters of
    the hot paths (training runner, collective runtime, congestion and
    flapping models, fault driver, sweep executor) and export one unified
    Chrome-trace document plus a JSONL metrics dump at the end.

    Each subsystem records into its own :class:`TraceRecorder` on a
    stable Chrome-trace ``pid`` lane (:data:`SUBSYSTEM_LANES`; unknown
    subsystems get the next free pid in registration order).
    """

    def __init__(self, job_name: str = "megascale") -> None:
        self.job_name = job_name
        self.metrics = MetricsRegistry()
        self.instants: List[Instant] = []
        self._recorders: Dict[str, TraceRecorder] = {}
        self._lanes: Dict[str, int] = {}

    # -- recording (what instrumented code calls) --------------------------

    def lane(self, subsystem: str) -> int:
        """The Chrome-trace pid assigned to ``subsystem`` (stable)."""
        pid = self._lanes.get(subsystem)
        if pid is None:
            pid = SUBSYSTEM_LANES.get(subsystem)
            if pid is None:
                taken = set(SUBSYSTEM_LANES.values()) | set(self._lanes.values())
                pid = max(taken) + 1 if taken else 1
            self._lanes[subsystem] = pid
        return pid

    def recorder(self, subsystem: str) -> TraceRecorder:
        """The subsystem's recorder — hand this to span-emitting APIs."""
        recorder = self._recorders.get(subsystem)
        if recorder is None:
            self.lane(subsystem)
            recorder = self._recorders[subsystem] = TraceRecorder()
        return recorder

    def span(
        self,
        subsystem: str,
        name: str,
        rank: int,
        start: float,
        end: float,
        stream: str = "default",
        **attrs: Any,
    ) -> Span:
        safe = {k: _json_safe(v) for k, v in attrs.items()}
        return self.recorder(subsystem).record(
            name, rank, float(start), float(end), stream, **safe
        )

    def instant(
        self, subsystem: str, name: str, ts: float, rank: int = 0, **attrs: Any
    ) -> Instant:
        self.lane(subsystem)
        event = Instant(subsystem, name, float(ts), int(rank), _label_key(attrs))
        self.instants.append(event)
        return event

    def count(self, subsystem: str, name: str, amount: float = 1.0, **labels: Any) -> float:
        return self.metrics.inc(f"{subsystem}.{name}", amount, **labels)

    def sample(
        self, subsystem: str, name: str, t: float, value: float, rank: int = 0
    ) -> None:
        """One gauge sample; becomes a Chrome counter ('C') event on the
        subsystem's lane as well as a metrics-registry series."""
        self.lane(subsystem)
        self.metrics.sample(f"{subsystem}.{name}", t, value, rank=rank)

    def observe(self, subsystem: str, name: str, value: float, **labels: Any) -> None:
        self.metrics.observe(f"{subsystem}.{name}", value, **labels)

    # -- queries -----------------------------------------------------------

    def subsystems(self) -> List[str]:
        """Active subsystem names in lane (pid) order."""
        return sorted(self._lanes, key=self._lanes.get)

    def spans(self, subsystem: str) -> List[Span]:
        return list(self._recorders.get(subsystem, ()))

    # -- export ------------------------------------------------------------

    def to_chrome_trace(self, job_name: Optional[str] = None) -> dict:
        from .export import hub_to_chrome_trace

        return hub_to_chrome_trace(self, job_name=job_name or self.job_name)

    def metrics_lines(self) -> List[str]:
        import json

        return [
            json.dumps(record, sort_keys=True) for record in self.metrics.records()
        ]

    def save(
        self, trace_path: str, metrics_path: Optional[str] = None
    ) -> Tuple[int, str]:
        """Write the unified trace document and the metrics JSONL sidecar.

        Returns ``(n_trace_events, metrics_path)``.  The default sidecar
        path swaps a ``.json`` suffix for ``.metrics.jsonl``.
        """
        from .export import dump_telemetry

        return dump_telemetry(self, trace_path, metrics_path=metrics_path)
