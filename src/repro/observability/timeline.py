"""Distributed timeline traces (§5.1, Figure 8).

Aggregates trace spans from all ranks of a communication group onto one
timeline, exposing execution order, pipeline bubbles and synchronization
structure that single-node profilers cannot show.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..sim.trace import Span, TraceRecorder


@dataclass(frozen=True)
class TimelineEvent:
    """A span placed on the merged timeline."""

    span: Span
    lane: int  # display row (one per rank)


@dataclass
class DistributedTimeline:
    """Spans of many ranks merged onto a single time axis."""

    events: List[TimelineEvent]
    lanes: Dict[int, int]  # rank -> lane index

    @classmethod
    def from_trace(
        cls, trace: TraceRecorder, ranks: Optional[List[int]] = None
    ) -> "DistributedTimeline":
        selected = ranks if ranks is not None else trace.ranks()
        lanes = {rank: i for i, rank in enumerate(selected)}
        events = [
            TimelineEvent(span=s, lane=lanes[s.rank])
            for s in sorted(trace, key=lambda s: (s.start, s.rank))
            if s.rank in lanes
        ]
        return cls(events=events, lanes=lanes)

    def extent(self) -> Tuple[float, float]:
        if not self.events:
            return (0.0, 0.0)
        return (
            min(e.span.start for e in self.events),
            max(e.span.end for e in self.events),
        )

    def gaps(self, rank: int, min_gap: float = 0.0) -> List[Tuple[float, float]]:
        """Idle intervals on one rank's lane — the pipeline bubbles."""
        spans = sorted(
            (e.span for e in self.events if e.span.rank == rank), key=lambda s: s.start
        )
        gaps = []
        for prev, nxt in zip(spans, spans[1:]):
            if nxt.start - prev.end > min_gap:
                gaps.append((prev.end, nxt.start))
        return gaps

    def bubble_time(self, rank: int) -> float:
        return sum(b - a for a, b in self.gaps(rank))

    def dependencies_of(self, span: Span) -> List[Span]:
        """Spans on other ranks this span plausibly waited for: the latest
        span per other rank ending at or before this one's start (the
        Figure 8 'dependencies become visible when an event is selected')."""
        out: Dict[int, Span] = {}
        for event in self.events:
            s = event.span
            if s.rank == span.rank or s.end > span.start + 1e-12:
                continue
            held = out.get(s.rank)
            if held is None or s.end > held.end:
                out[s.rank] = s
        return [out[r] for r in sorted(out)]

    def render_ascii(self, width: int = 80) -> str:
        """Text rendering: one lane per rank, '#' busy, '.' idle."""
        if width < 10:
            raise ValueError("width must be >= 10")
        start, end = self.extent()
        span = (end - start) or 1.0
        lines = []
        for rank in sorted(self.lanes, key=self.lanes.get):
            row = ["."] * width
            for event in self.events:
                if event.span.rank != rank:
                    continue
                a = int((event.span.start - start) / span * (width - 1))
                b = int((event.span.end - start) / span * (width - 1))
                glyph = "#" if event.span.stream != "comm" else "~"
                for i in range(a, max(a, b) + 1):
                    row[i] = glyph
            lines.append(f"rank {rank:5d} |{''.join(row)}|")
        return "\n".join(lines)
