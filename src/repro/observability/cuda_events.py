"""CUDA-event-style performance timer (§5.1).

The paper's tool times critical code segments per rank using CUDA events
(avoiding synchronization overhead), writes records line-by-line to a
local file, streams them through Kafka into an analytical database, and
feeds the heat-map / timeline visualizations.

Here: :class:`CudaEventTimer` records per-(rank, step, segment) durations,
directly or from the segment spans a telemetry hub recorded
(:meth:`CudaEventTimer.from_spans`); :class:`EventStreamer` models the
file -> queue -> database pipeline so the analysis layer reads from the
"database" exactly like the paper's.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..sim.trace import Span

# The critical segments the paper's timer instruments.
SEGMENTS = ("forward", "backward", "optimizer", "reduce_scatter", "all_gather", "data_wait")


@dataclass(frozen=True)
class EventRecord:
    """One timed segment occurrence on one rank."""

    rank: int
    step: int
    segment: str
    duration: float
    started_at: float = 0.0

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError("durations must be non-negative")


@dataclass
class CudaEventTimer:
    """Per-rank, per-step segment timing with negligible overhead."""

    records: List[EventRecord] = field(default_factory=list)
    _by_segment: Dict[Tuple[int, str], List[float]] = field(
        init=False, default_factory=lambda: defaultdict(list)
    )

    def __post_init__(self) -> None:
        for rec in self.records:
            self._by_segment[(rec.rank, rec.segment)].append(rec.duration)

    @classmethod
    def from_spans(cls, spans: Iterable[Span]) -> "CudaEventTimer":
        """A timer over recorded segment spans, in span order.

        Every span named like a :data:`SEGMENTS` entry that carries a
        ``step`` attr becomes one record (duration and start from the
        span) — how the training lane of a hub, live or saved, feeds the
        heat-map and decline tools.
        """
        timer = cls()
        for span in spans:
            step = span.attr("step")
            if span.name in SEGMENTS and step is not None:
                timer.record(span.rank, int(step), span.name, span.duration, span.start)
        return timer

    def record(
        self, rank: int, step: int, segment: str, duration: float, started_at: float = 0.0
    ) -> EventRecord:
        rec = EventRecord(rank, step, segment, duration, started_at)
        self.records.append(rec)
        self._by_segment[(rank, segment)].append(duration)
        return rec

    def mean_duration(self, rank: int, segment: str) -> float:
        values = self._by_segment.get((rank, segment))
        if not values:
            raise KeyError(f"no records for rank {rank} segment {segment!r}")
        return float(np.mean(values))

    def ranks(self) -> List[int]:
        return sorted({r.rank for r in self.records})

    def segments(self) -> List[str]:
        return sorted({r.segment for r in self.records})

    def step_records(self, step: int) -> List[EventRecord]:
        return [r for r in self.records if r.step == step]

    def rank_step_total(self, rank: int, step: int) -> float:
        return sum(r.duration for r in self.records if r.rank == rank and r.step == step)

    def matrix(self, segment: str) -> Tuple[List[int], np.ndarray]:
        """(ranks, per-rank mean duration) for one segment — heat-map input.

        Only the ranks that recorded ``segment`` appear; an unrecorded
        segment gives empty arrays.
        """
        ranks = sorted({r.rank for r in self.records if r.segment == segment})
        values = np.array([self.mean_duration(r, segment) for r in ranks])
        return ranks, values


@dataclass
class EventStreamer:
    """Local log file -> Kafka queue -> analytical database (§5.1).

    Deliberately structural: each hop is a list with a cursor, so tests
    can verify no records are lost or reordered and analysis reads only
    what reached the database.
    """

    log_file: List[EventRecord] = field(default_factory=list)
    kafka_queue: List[EventRecord] = field(default_factory=list)
    database: List[EventRecord] = field(default_factory=list)
    _file_cursor: int = 0
    _queue_cursor: int = 0

    def write_log(self, records: Iterable[EventRecord]) -> None:
        """The training process appends records line-by-line."""
        self.log_file.extend(records)

    def sync_to_kafka(self, max_records: Optional[int] = None) -> int:
        """The streamer process tails the file into the queue."""
        pending = self.log_file[self._file_cursor :]
        if max_records is not None:
            pending = pending[:max_records]
        self.kafka_queue.extend(pending)
        self._file_cursor += len(pending)
        return len(pending)

    def consume_to_database(self, max_records: Optional[int] = None) -> int:
        pending = self.kafka_queue[self._queue_cursor :]
        if max_records is not None:
            pending = pending[:max_records]
        self.database.extend(pending)
        self._queue_cursor += len(pending)
        return len(pending)

    def pump(self) -> int:
        """Drain everything end-to-end; returns records landed in the DB."""
        self.sync_to_kafka()
        return self.consume_to_database()

    def timer_from_database(self) -> CudaEventTimer:
        """Build an analysis-side timer view from the database contents."""
        return CudaEventTimer(records=list(self.database))
