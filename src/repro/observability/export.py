"""Chrome trace-event export and read-back.

:func:`hub_to_chrome_trace` renders a whole
:class:`~repro.observability.telemetry.TelemetryHub` as one document in
the Chrome trace-event JSON format, loadable in ``chrome://tracing`` /
Perfetto — the practical equivalent of the paper's timeline UI for
anyone running this reproduction: one ``pid`` lane per subsystem,
complete (``X``) events for spans, instant (``i``) events for
faults/findings/flaps, and counter (``C``) events for gauge samples.
All events are sorted on a total order so the same hub always
serializes byte-identically.  The readers below load a saved document
and its metrics sidecar back (the ``repro trace`` and ``repro
diagnose --trace`` commands).
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Optional, Tuple

from ..sim.trace import Span, TraceRecorder

# Chrome traces use microseconds.
_US = 1e6


def span_to_event(span: Span, pid: int = 0) -> dict:
    """One complete ('X') trace event from a span."""
    return {
        "name": span.name,
        "cat": span.stream,
        "ph": "X",
        "ts": span.start * _US,
        "dur": span.duration * _US,
        "pid": pid,
        "tid": span.rank,
        "args": {k: v for k, v in span.attrs},
    }


def instant_to_event(
    name: str, ts: float, pid: int = 0, tid: int = 0, args: Optional[dict] = None
) -> dict:
    """One instant ('i') event, process-scoped so it spans the lane."""
    return {
        "name": name,
        "ph": "i",
        "s": "p",
        "ts": ts * _US,
        "pid": pid,
        "tid": tid,
        "args": args or {},
    }


def counter_to_event(
    name: str, ts: float, value: float, pid: int = 0, tid: int = 0
) -> dict:
    """One counter ('C') event — Perfetto renders the series as a graph."""
    return {
        "name": name,
        "ph": "C",
        "ts": ts * _US,
        "pid": pid,
        "tid": tid,
        "args": {"value": value},
    }


def _event_order(event: dict) -> tuple:
    """Total order for non-metadata events: time first, then lane/row."""
    return (
        event.get("ts", 0.0),
        event.get("pid", 0),
        event.get("tid", 0),
        event.get("ph", ""),
        event.get("name", ""),
    )


def hub_to_chrome_trace(hub, job_name: Optional[str] = None) -> dict:
    """One unified document for everything a telemetry hub recorded.

    Layout: one process (``pid``) lane per subsystem with metadata names,
    span 'X' events with ``tid`` = rank, instant 'i' events for
    faults/findings/flaps, and counter 'C' events for every gauge series
    (named ``subsystem.metric``, attached to the subsystem's lane).
    """
    job = job_name or getattr(hub, "job_name", "megascale")
    events: List[dict] = []
    for subsystem in hub.subsystems():
        pid = hub.lane(subsystem)
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "args": {"name": f"{job}/{subsystem}"},
            }
        )
        events.append(
            {
                "name": "process_sort_index",
                "ph": "M",
                "pid": pid,
                "args": {"sort_index": pid},
            }
        )
        ranks = sorted(
            {s.rank for s in hub.spans(subsystem)}
            | {i.rank for i in hub.instants if i.subsystem == subsystem}
        )
        for rank in ranks:
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": rank,
                    "args": {"name": f"rank {rank}"},
                }
            )

    timed: List[dict] = []
    for subsystem in hub.subsystems():
        pid = hub.lane(subsystem)
        timed.extend(span_to_event(span, pid=pid) for span in hub.spans(subsystem))
    for inst in hub.instants:
        timed.append(
            instant_to_event(
                inst.name,
                inst.ts,
                pid=hub.lane(inst.subsystem),
                tid=inst.rank,
                args=dict(inst.attrs),
            )
        )
    for name, labels, series in hub.metrics.gauges():
        subsystem = name.split(".", 1)[0]
        pid = hub.lane(subsystem) if subsystem in hub.subsystems() else 0
        tid = dict(labels).get("rank", 0)
        timed.extend(counter_to_event(name, t, v, pid=pid, tid=tid) for t, v in series)
    events.extend(sorted(timed, key=_event_order))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def dump_telemetry(
    hub, trace_path: str, metrics_path: Optional[str] = None
) -> Tuple[int, str]:
    """Write a hub's unified trace document plus its metrics JSONL dump.

    Returns ``(n_trace_events, metrics_path)``.  The default metrics path
    swaps a ``.json`` suffix for ``.metrics.jsonl`` (or appends it).
    """
    if metrics_path is None:
        if trace_path.endswith(".json"):
            metrics_path = trace_path[: -len(".json")] + ".metrics.jsonl"
        else:
            metrics_path = trace_path + ".metrics.jsonl"
    document = hub.to_chrome_trace()
    with open(trace_path, "w") as handle:
        json.dump(document, handle)
    with open(metrics_path, "w") as handle:
        for line in hub.metrics_lines():
            handle.write(line + "\n")
    return len(document["traceEvents"]), metrics_path


# -- reading saved sessions back (the `repro trace` command) -----------------


# A span's own fields, which its attributes cannot reuse
# (:meth:`~repro.sim.trace.TraceRecorder.record` takes both by keyword).
_SPAN_FIELDS = frozenset(("name", "rank", "start", "end", "stream"))


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integer(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_json(where: str, text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where}: not JSON ({exc})") from None


def _event_problem(event: Any) -> Optional[str]:
    """Why ``event`` is not a trace event, or None if it is one.

    Every field is optional (readers default a missing one); a present
    field must have its trace-event type.
    """
    if not isinstance(event, dict):
        return "is not an object"
    for key in ("ph", "name", "cat"):
        if key in event and not isinstance(event[key], str):
            return f"has a non-string {key!r}"
    for key in ("ts", "dur"):
        if key in event and not (_is_number(event[key]) and math.isfinite(event[key])):
            return f"has a {key!r} that is not a finite number"
    for key in ("pid", "tid"):
        if key in event and not _is_integer(event[key]):
            return f"has a non-integer {key!r}"
    args = event.get("args", {})
    if not isinstance(args, dict):
        return "has an 'args' that is not an object"
    ph = event.get("ph")
    if ph == "M" and not isinstance(args.get("name", ""), str):
        return "names its lane with a non-string"
    if ph == "C" and not _is_number(args.get("value", 0.0)):
        return "has a non-numeric counter value"
    if ph == "X" and not _SPAN_FIELDS.isdisjoint(args):
        return f"has span args named like span fields {sorted(_SPAN_FIELDS & set(args))}"
    return None


def load_trace_document(path: str) -> dict:
    """Read a saved trace document, checking its shape.

    A saved file is outside input: anything but an object whose
    ``traceEvents`` is a list of trace events (string ``ph``/``name``/
    ``cat``, finite numeric ``ts``/``dur``, integer ``pid``/``tid``, an
    object ``args``) raises ``ValueError`` naming the file.
    """
    with open(path) as handle:
        document = _parse_json(path, handle.read())
    if not isinstance(document, dict) or not isinstance(
        document.get("traceEvents"), list
    ):
        raise ValueError(f"{path}: not a trace document (no 'traceEvents' list)")
    for index, event in enumerate(document["traceEvents"]):
        problem = _event_problem(event)
        if problem:
            raise ValueError(f"{path}: trace event {index} {problem}")
    return document


def lane_names(document: dict) -> Dict[int, str]:
    """pid -> process name, from the document's metadata events."""
    names: Dict[int, str] = {}
    for event in document.get("traceEvents", []):
        if event.get("ph") == "M" and event.get("name") == "process_name":
            names[event.get("pid", 0)] = event.get("args", {}).get("name", "")
    return names


def lane_summary(document: dict) -> List[dict]:
    """Per-lane event counts and time extent, ordered by pid."""
    lanes: Dict[int, dict] = {}
    for pid, name in lane_names(document).items():
        lanes[pid] = {
            "pid": pid, "name": name, "spans": 0, "instants": 0,
            "counters": 0, "start": None, "end": None,
        }
    for event in document.get("traceEvents", []):
        ph = event.get("ph")
        if ph == "M":
            continue
        pid = event.get("pid", 0)
        lane = lanes.setdefault(
            pid,
            {"pid": pid, "name": f"pid {pid}", "spans": 0, "instants": 0,
             "counters": 0, "start": None, "end": None},
        )
        if ph == "X":
            lane["spans"] += 1
        elif ph == "i":
            lane["instants"] += 1
        elif ph == "C":
            lane["counters"] += 1
        ts = event.get("ts", 0.0) / _US
        end = ts + event.get("dur", 0.0) / _US
        lane["start"] = ts if lane["start"] is None else min(lane["start"], ts)
        lane["end"] = end if lane["end"] is None else max(lane["end"], end)
    return [lanes[pid] for pid in sorted(lanes)]


def lane_subsystems(document: dict) -> Dict[int, str]:
    """pid -> bare subsystem name (the ``job/subsystem`` suffix)."""
    return {
        pid: name.rsplit("/", 1)[-1] if name else f"pid {pid}"
        for pid, name in lane_names(document).items()
    }


def _record_problem(record: Any) -> Optional[str]:
    """Why ``record`` is not a metric record, or None if it is one."""
    if not isinstance(record, dict):
        return "is not an object"
    if record.get("kind") != "gauge" or "series" not in record:
        return None
    if not isinstance(record.get("name"), str):
        return "is a gauge series without a string 'name'"
    series = record["series"]
    if not isinstance(series, list) or not all(
        isinstance(point, list) and len(point) == 2 and all(map(_is_number, point))
        for point in series
    ):
        return "has a gauge 'series' that is not a list of number pairs"
    return None


def load_metrics_records(path: str) -> List[dict]:
    """Parse a ``.metrics.jsonl`` sidecar back into metric records.

    Like the trace document, the sidecar is outside input: a line that
    is not a metric object raises ``ValueError`` naming the file.
    """
    records: List[dict] = []
    with open(path) as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            record = _parse_json(f"{path}: line {number}", line)
            problem = _record_problem(record)
            if problem:
                raise ValueError(f"{path}: line {number} {problem}")
            records.append(record)
    return records


def gauge_series_from_records(
    records: List[dict],
) -> Dict[str, List[Tuple[float, float]]]:
    """Full gauge series by metric name, merged across label sets.

    Consumes the ``series`` field the registry now exports; series that
    share a name (e.g. per-rank variants) are merged and time-sorted so
    detectors see one stream per metric.
    """
    merged: Dict[str, List[Tuple[float, float]]] = {}
    for record in records:
        if record.get("kind") != "gauge" or "series" not in record:
            continue
        merged.setdefault(record["name"], []).extend(
            (float(t), float(v)) for t, v in record["series"]
        )
    return {name: sorted(series) for name, series in merged.items()}


def lane_recorder(document: dict, lane: str) -> TraceRecorder:
    """Rebuild a :class:`TraceRecorder` from one lane's 'X' events.

    ``lane`` matches the process name's suffix (``job/subsystem`` or the
    bare subsystem name), so ``lane_recorder(doc, "training")`` recovers
    the training lane of a hub export.
    """
    target_pid = None
    for pid, name in lane_names(document).items():
        if name == lane or name.endswith(f"/{lane}"):
            target_pid = pid
            break
    if target_pid is None:
        raise KeyError(f"no lane named {lane!r} in the document")
    recorder = TraceRecorder()
    for event in document.get("traceEvents", []):
        if event.get("ph") != "X" or event.get("pid") != target_pid:
            continue
        start = event.get("ts", 0.0) / _US
        recorder.record(
            event.get("name", ""),
            rank=event.get("tid", 0),
            start=start,
            end=start + event.get("dur", 0.0) / _US,
            stream=event.get("cat", "default"),
            **event.get("args", {}),
        )
    return recorder
