"""Readers tests use to look up one metric and to reset a memo cache.

A :class:`~repro.observability.telemetry.MetricsRegistry` is read
through ``records()``, the same records the ``.metrics.jsonl`` sidecar
holds, so a test sees what a saved run would show.
"""

from __future__ import annotations

from typing import List, Optional, Tuple


def _record(registry, kind: str, name: str, labels: dict) -> Optional[dict]:
    for record in registry.records():
        if record["kind"] == kind and record["name"] == name and record["labels"] == labels:
            return record
    return None


def counter(registry, name: str, **labels) -> float:
    """The counter's value (0 if it was never incremented)."""
    record = _record(registry, "counter", name, labels)
    return record["value"] if record is not None else 0.0


def gauge_series(registry, name: str, **labels) -> List[Tuple[float, float]]:
    """The gauge's ``(t, value)`` samples in recording order."""
    record = _record(registry, "gauge", name, labels)
    return [(t, v) for t, v in record["series"]] if record is not None else []


def digest(registry, name: str, **labels) -> Optional[dict]:
    """The digest's summary record (count, mean, min, max, p50/p95/p99)."""
    return _record(registry, "digest", name, labels)


def reset_cache(cache) -> None:
    """Drop a memo cache's entries and zero its counters."""
    cache.store.clear()
    cache.hits = cache.misses = cache.evictions = 0
