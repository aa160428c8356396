"""Span-based trace recording.

The observability tools (§5 of the paper) consume *spans*: named intervals
with a rank, a stream (e.g. ``forward``, ``reduce_scatter``), and free-form
attributes.  :class:`TraceRecorder` is the in-simulation analogue of the
paper's CUDA-event timer: cheap to record, queryable afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, List, Tuple


@dataclass(frozen=True)
class Span:
    """A closed interval of simulated time attributed to one rank."""

    name: str
    rank: int
    start: float
    end: float
    stream: str = "default"
    attrs: Tuple[Tuple[str, Any], ...] = ()

    @property
    def duration(self) -> float:
        return self.end - self.start

    def attr(self, key: str, default: Any = None) -> Any:
        for k, v in self.attrs:
            if k == key:
                return v
        return default


class TraceRecorder:
    """Collects spans in recording order."""

    def __init__(self) -> None:
        self._spans: List[Span] = []

    def record(
        self,
        name: str,
        rank: int,
        start: float,
        end: float,
        stream: str = "default",
        **attrs: Any,
    ) -> Span:
        if end < start:
            raise ValueError(f"span {name!r} ends before it starts ({start} > {end})")
        span = Span(name, rank, start, end, stream, tuple(sorted(attrs.items())))
        self._spans.append(span)
        return span

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self._spans)

    def ranks(self) -> List[int]:
        return sorted({s.rank for s in self._spans})
