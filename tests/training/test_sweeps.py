"""Tests for sweep utilities, jobfiles, and trace export."""

import json

import pytest

from repro import job_175b, megascale
from repro.core.jobfile import job_from_dict, job_to_dict, load_job, save_job
from repro.observability.export import span_to_event
from repro.sim import TraceRecorder
from repro.training.sweeps import (
    SweepResult,
    batch_sweep,
    single_system_sweep,
    strong_scaling_sweep,
    weak_scaling_sweep,
)


# -- sweeps --------------------------------------------------------------------


@pytest.fixture(scope="module")
def strong():
    return strong_scaling_sweep(job_175b(256, 768), gpu_counts=[256, 512, 1024])


def test_strong_sweep_structure(strong):
    assert strong.kind == "strong"
    assert [p.n_gpus for p in strong.points] == [256, 512, 1024]
    assert all(p.global_batch == 768 for p in strong.points)
    assert strong.megascale_always_wins()


def test_strong_sweep_mfu_declines(strong):
    assert strong.mfu_drop("megascale") > 0
    assert strong.mfu_drop("baseline") > 0
    with pytest.raises(ValueError):
        strong.mfu_series("other")


def test_sweep_table_renders(strong):
    table = strong.table()
    assert "speedup" in table
    assert "256" in table


def test_weak_sweep_scales_batch():
    sweep = weak_scaling_sweep(job_175b(256, 768), gpu_counts=[256, 512])
    assert sweep.points[0].global_batch == 768
    assert sweep.points[1].global_batch == 1536
    assert sweep.kind == "weak"


def test_batch_sweep():
    sweep = batch_sweep(job_175b(256, 768), batches=[256, 768])
    assert [p.global_batch for p in sweep.points] == [256, 768]
    # Bigger batch amortizes fixed costs: higher MFU.
    assert sweep.points[1].comparison.megascale.mfu > sweep.points[0].comparison.megascale.mfu


def test_single_system_sweep():
    mfus = single_system_sweep(megascale(), job_175b(256, 768), [256, 512])
    assert len(mfus) == 2
    assert all(0 < m < 1 for m in mfus)


def test_empty_sweep_rejected():
    with pytest.raises(ValueError):
        SweepResult(kind="strong", points=[])


# -- parallel execution (repro.exec) -------------------------------------------


def test_parallel_strong_sweep_identical_to_serial():
    """workers=4 output equals the serial sweep bit-for-bit."""
    base = job_175b(256, 768)
    counts = [256, 512, 768, 1024]
    serial = strong_scaling_sweep(base, counts, workers=0)
    parallel = strong_scaling_sweep(base, counts, workers=4)
    assert parallel.points == serial.points  # exact float equality
    assert parallel.table() == serial.table()
    assert parallel == serial  # stats are excluded from equality
    assert parallel.stats.workers == 4 and serial.stats.workers == 0


def test_parallel_weak_and_batch_sweeps_identical_to_serial():
    base = job_175b(256, 768)
    assert weak_scaling_sweep(base, [256, 512], workers=2).points == (
        weak_scaling_sweep(base, [256, 512]).points
    )
    assert batch_sweep(base, [256, 768], workers=2).points == (
        batch_sweep(base, [256, 768]).points
    )


def test_sweep_stats_show_cost_model_reuse():
    sweep = strong_scaling_sweep(job_175b(256, 768), [256, 512, 1024])
    stats = sweep.stats
    assert stats is not None and stats.n_tasks == 3
    # Strong scaling varies only dp; block costs repeat across points.
    assert stats.caches["block_cost"].hits > 0
    assert stats.hit_rate > 0
    assert "tasks" in stats.describe()


def test_single_system_sweep_parallel_matches_serial():
    mfus_serial = single_system_sweep(megascale(), job_175b(256, 768), [256, 512])
    mfus_parallel = single_system_sweep(
        megascale(), job_175b(256, 768), [256, 512], workers=2
    )
    assert mfus_parallel == mfus_serial


# -- cross-run persistent cache -------------------------------------------------


def test_strong_sweep_persistent_cache_skips_repriced_points(tmp_path):
    from repro.exec import PersistentMemo

    base = job_175b(256, 768)
    path = str(tmp_path / "sweep.pkl")
    with PersistentMemo(path) as memo:
        first = strong_scaling_sweep(base, [256, 512], cache=memo)
    assert first.stats.persistent_hits == 0

    with PersistentMemo(path) as memo:
        second = strong_scaling_sweep(base, [256, 512, 1024], cache=memo)
    assert second.stats.persistent_hits == 2  # 256 and 512 came from disk
    assert second.points[:2] == first.points  # bit-identical to the live run
    uncached = strong_scaling_sweep(base, [256, 512, 1024])
    assert second.points == uncached.points


def test_single_system_sweep_persistent_cache(tmp_path):
    from repro.exec import PersistentMemo

    path = str(tmp_path / "single.pkl")
    with PersistentMemo(path) as memo:
        first = single_system_sweep(megascale(), job_175b(256, 768), [256], cache=memo)
    with PersistentMemo(path) as memo:
        assert memo.entries  # first run persisted its point
        second = single_system_sweep(megascale(), job_175b(256, 768), [256], cache=memo)
        assert memo.hits == 1
    assert second == first


# -- jobfiles ------------------------------------------------------------------


def test_job_dict_round_trip():
    job = job_175b(512, 768)
    data = job_to_dict(job)
    rebuilt = job_from_dict(data)
    assert job_to_dict(rebuilt) == data


def test_job_file_round_trip(tmp_path):
    job = job_175b(1024, 768)
    path = tmp_path / "job.json"
    save_job(job, str(path))
    loaded = load_job(str(path))
    assert loaded.n_gpus == 1024
    assert loaded.model_spec.name == "gpt-175b"
    # The file is plain reviewable JSON.
    assert json.loads(path.read_text())["tp"] == 8


def test_job_from_json_string():
    job = load_job('{"model": "gpt-13b", "n_gpus": 16, "global_batch": 64, "tp": 2, "pp": 2}')
    assert job.model_spec.name == "gpt-13b"


def test_job_dict_validation():
    with pytest.raises(ValueError):
        job_from_dict({"model": "gpt-175b", "n_gpus": 8})  # missing batch
    with pytest.raises(ValueError):
        job_from_dict({"model": "gpt-175b", "n_gpus": 8, "global_batch": 8, "color": "red"})
    with pytest.raises(TypeError):
        job_from_dict(["not", "a", "dict"])


# -- chrome trace export ----------------------------------------------------------


def make_trace():
    trace = TraceRecorder()
    trace.record("F", rank=0, start=0.0, end=1.0, stream="compute", microbatch=0)
    trace.record("send", rank=0, start=1.0, end=1.1, stream="comm")
    trace.record("F", rank=1, start=1.1, end=2.1, stream="compute", microbatch=0)
    return trace


def test_span_to_event_units():
    trace = make_trace()
    span = next(iter(trace))
    event = span_to_event(span)
    assert event["ph"] == "X"
    assert event["ts"] == 0.0
    assert event["dur"] == pytest.approx(1e6)  # microseconds
    assert event["tid"] == 0
    assert event["args"]["microbatch"] == 0
