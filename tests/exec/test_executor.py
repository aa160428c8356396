"""Tests for the sweep executor: ordering, determinism, stats plumbing."""

import pytest

from repro import compare, job_175b
from repro.exec import PersistentMemo, SweepExecutor, run_tasks


def _square(x):
    return x * x


def _key(x):
    return f"square:{x}"


def test_serial_map_preserves_order():
    results, stats = run_tasks(_square, [3, 1, 2], workers=0)
    assert results == [9, 1, 4]
    assert stats.n_tasks == 3 and stats.workers == 0


def test_parallel_map_matches_serial_order():
    items = list(range(8))
    serial, _ = run_tasks(_square, items, workers=0)
    parallel, stats = run_tasks(_square, items, workers=3)
    assert parallel == serial  # insertion-ordered merge
    assert stats.workers == 3 and stats.n_tasks == 8


def test_empty_items():
    results, stats = run_tasks(_square, [], workers=2)
    assert results == [] and stats.n_tasks == 0


def test_negative_workers_rejected():
    with pytest.raises(ValueError):
        SweepExecutor(workers=-1)


def test_executor_map_equivalent_to_run_tasks():
    a, _ = SweepExecutor(workers=0).map(_square, [4, 5])
    b, _ = run_tasks(_square, [4, 5])
    assert a == b == [16, 25]


def test_parallel_compare_bit_for_bit_identical():
    """Pricing real jobs through worker processes is deterministic."""
    jobs = [job_175b(n, 768) for n in (256, 512)]
    serial, _ = run_tasks(compare, jobs, workers=0)
    parallel, _ = run_tasks(compare, jobs, workers=2)
    assert parallel == serial


def test_serial_sweep_records_cost_model_reuse():
    """Repeated points share block/optimizer cost-model evaluations."""
    jobs = [job_175b(256, 768), job_175b(512, 768)]
    _, stats = run_tasks(compare, jobs, workers=0)
    assert stats.calls > 0
    # The second point re-uses the first point's block costs (the block
    # cost does not depend on dp), so some hits are guaranteed.
    assert stats.hits > 0


# -- cross-run persistent cache -----------------------------------------------


def test_cache_requires_key_function(tmp_path):
    memo = PersistentMemo(str(tmp_path / "m.pkl"))
    with pytest.raises(ValueError):
        run_tasks(_square, [1], cache=memo)
    with pytest.raises(ValueError):
        run_tasks(_square, [1], cache_key=_key)


def test_cache_short_circuits_repeat_items(tmp_path):
    path = str(tmp_path / "m.pkl")
    with PersistentMemo(path) as memo:
        results, stats = run_tasks(_square, [2, 3, 4], cache=memo, cache_key=_key)
    assert results == [4, 9, 16]
    assert stats.persistent_hits == 0

    calls = []

    def tracked(x):
        calls.append(x)
        return x * x

    with PersistentMemo(path) as memo:
        results, stats = run_tasks(tracked, [2, 5, 4], cache=memo, cache_key=_key)
    assert results == [4, 25, 16]
    assert calls == [5]  # only the unseen item executed
    assert stats.persistent_hits == 2 and stats.n_tasks == 3


def test_cache_with_parallel_workers(tmp_path):
    path = str(tmp_path / "m.pkl")
    with PersistentMemo(path) as memo:
        run_tasks(_square, [1, 2], cache=memo, cache_key=_key)
    with PersistentMemo(path) as memo:
        results, stats = run_tasks(
            _square, [1, 2, 3, 4], workers=2, cache=memo, cache_key=_key
        )
    assert results == [1, 4, 9, 16]
    assert stats.persistent_hits == 2


def test_cached_tasks_still_emit_spans(tmp_path):
    from repro.observability import TelemetryHub

    path = str(tmp_path / "m.pkl")
    with PersistentMemo(path) as memo:
        run_tasks(_square, [7], cache=memo, cache_key=_key)
    hub = TelemetryHub("exec-test")
    with PersistentMemo(path) as memo:
        run_tasks(_square, [7, 8], hub=hub, cache=memo, cache_key=_key)
    spans = hub.spans("exec")
    by_task = {dict(s.attrs)["task"]: dict(s.attrs) for s in spans}
    assert by_task[0]["cached"] is True
    assert by_task[1]["cached"] is False
    assert hub.metrics.counter("exec.persistent_hits") == 1
