"""Tests for the CUDA-event timer, streaming pipeline and heat map."""

import numpy as np
import pytest

from repro.observability import (
    CudaEventTimer,
    EventStreamer,
    analyze,
    consistent_peak_mfu,
    render_ascii,
    straggler_machines,
)


def make_timer(n_ranks=64, n_steps=10, slow_ranks=(), slowdown=1.12, seed=0):
    """Synthetic fleet: ~constant forward times, some ranks slower."""
    rng = np.random.default_rng(seed)
    timer = CudaEventTimer()
    for step in range(n_steps):
        for rank in range(n_ranks):
            base = 0.100 * (slowdown if rank in slow_ranks else 1.0)
            timer.record(rank, step, "forward", base + rng.normal(0, 0.001))
    return timer


def test_timer_mean_and_matrix():
    timer = CudaEventTimer()
    timer.record(0, 0, "forward", 0.1)
    timer.record(0, 1, "forward", 0.3)
    assert timer.mean_duration(0, "forward") == pytest.approx(0.2)
    ranks, values = timer.matrix("forward")
    assert ranks == [0]
    assert values[0] == pytest.approx(0.2)
    with pytest.raises(KeyError):
        timer.mean_duration(9, "forward")


def test_matrix_lists_only_the_ranks_that_recorded_the_segment():
    # Rank 9 recorded a backward segment but no forward one: the forward
    # heat map covers ranks 0-3 instead of raising KeyError for rank 9.
    timer = make_timer(n_ranks=4, n_steps=2)
    timer.record(9, 0, "backward", 0.2)
    ranks, values = timer.matrix("forward")
    assert ranks == [0, 1, 2, 3] and len(values) == 4
    assert analyze(timer, "forward").ranks == (0, 1, 2, 3)
    assert timer.matrix("backward")[0] == [9]
    ranks, values = timer.matrix("optimizer")
    assert ranks == [] and len(values) == 0


def test_timer_built_from_records_is_indexed():
    records = make_timer(n_ranks=3, n_steps=2).records
    timer = CudaEventTimer(records=list(records))
    assert sorted({r.rank for r in timer.records}) == [0, 1, 2]
    expected = np.mean([r.duration for r in records if r.rank == 1])
    assert timer.mean_duration(1, "forward") == pytest.approx(expected)
    ranks, values = timer.matrix("forward")
    assert ranks == [0, 1, 2] and values[1] == pytest.approx(expected)


def test_timer_from_spans_reads_step_tagged_segments_in_order():
    from repro.sim import TraceRecorder

    trace = TraceRecorder()
    trace.record("iteration", 0, 0.0, 4.0, step=0)  # not a segment
    trace.record("forward", 1, 0.5, 1.5, step=0)
    trace.record("forward", 0, 0.0, 1.0)  # no step attr
    trace.record("backward", 0, 1.0, 3.0, step=0)
    trace.record("forward", 0, 4.0, 4.5, step=1)
    timer = CudaEventTimer.from_spans(trace)
    assert [(r.rank, r.step, r.segment) for r in timer.records] == [
        (1, 0, "forward"), (0, 0, "backward"), (0, 1, "forward"),
    ]
    assert timer.records[0].duration == 1.0 and timer.records[0].started_at == 0.5
    assert timer.mean_duration(0, "backward") == 2.0


def test_timer_validation():
    timer = CudaEventTimer()
    with pytest.raises(ValueError):
        timer.record(0, 0, "forward", -1.0)


def test_streamer_end_to_end_no_loss():
    timer = make_timer(n_ranks=4, n_steps=3)
    streamer = EventStreamer()
    streamer.write_log(timer.records)
    landed = streamer.pump()
    assert landed == len(timer.records)
    assert streamer.database == timer.records  # order preserved
    rebuilt = streamer.timer_from_database()
    assert rebuilt.records == timer.records


def test_streamer_incremental_sync():
    streamer = EventStreamer()
    timer = make_timer(n_ranks=2, n_steps=2)
    streamer.write_log(timer.records[:2])
    assert streamer.sync_to_kafka() == 2
    streamer.write_log(timer.records[2:])
    assert streamer.sync_to_kafka() == len(timer.records) - 2
    assert streamer.consume_to_database(max_records=1) == 1
    assert streamer.consume_to_database() == len(timer.records) - 1


def test_heatmap_finds_planted_stragglers():
    slow = {5, 37}
    timer = make_timer(n_ranks=128, slow_ranks=slow)
    result = analyze(timer, "forward")
    assert set(result.outliers) == slow
    assert result.outlier_fraction == pytest.approx(2 / 128)


def test_heatmap_clean_fleet_has_no_outliers():
    timer = make_timer(n_ranks=64, slow_ranks=())
    result = analyze(timer, "forward")
    assert result.outliers == ()


def test_heatmap_paper_scenario_half_percent():
    # §5.1: ~0.5% of machines ~10% slower.
    n_ranks = 1024
    slow = set(range(0, n_ranks, 200))  # ~0.5%
    timer = make_timer(n_ranks=n_ranks, slow_ranks=slow, slowdown=1.10, seed=3)
    result = analyze(timer, "forward")
    assert set(result.outliers) == slow
    machines = straggler_machines(result, gpus_per_node=8)
    assert machines == sorted({r // 8 for r in slow})


def test_heatmap_validation():
    timer = make_timer(n_ranks=4)
    with pytest.raises(ValueError):
        analyze(timer, "forward", mad_multiplier=0)
    with pytest.raises(ValueError, match="no records for segment"):
        analyze(timer, "nonexistent")
    with pytest.raises(ValueError):
        straggler_machines(analyze(timer, "forward"), gpus_per_node=0)


def test_render_ascii_structure():
    timer = make_timer(n_ranks=64, slow_ranks={10})
    text = render_ascii(analyze(timer, "forward"), width=32)
    lines = text.splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("|") and lines[1].endswith("|")
    assert "outliers: 1" in lines[2]
    with pytest.raises(ValueError):
        render_ascii(analyze(timer, "forward"), width=0)


def test_peak_mfu_consistency_improves():
    before, after = consistent_peak_mfu([0.55, 0.60, 0.52], [0.60, 0.598, 0.601])
    assert after < before
    with pytest.raises(ValueError):
        consistent_peak_mfu([], [0.6])
