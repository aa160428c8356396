"""Unit tests for trace recording."""

import pytest

from repro.sim import TraceRecorder


def test_record_and_query_spans():
    rec = TraceRecorder()
    rec.record("forward", rank=0, start=0.0, end=1.0)
    rec.record("backward", rank=0, start=1.0, end=3.0)
    rec.record("forward", rank=1, start=0.0, end=1.5)
    assert len(rec) == 3
    assert rec.ranks() == [0, 1]
    assert [s.name for s in rec if s.rank == 0] == ["forward", "backward"]


def test_span_duration_and_attrs():
    rec = TraceRecorder()
    span = rec.record("rs", rank=2, start=1.0, end=4.0, stream="comm", chunk=3)
    assert span.duration == 3.0
    assert span.attr("chunk") == 3
    assert span.attr("missing", "dflt") == "dflt"


def test_invalid_span_rejected():
    rec = TraceRecorder()
    with pytest.raises(ValueError):
        rec.record("bad", rank=0, start=5.0, end=1.0)
