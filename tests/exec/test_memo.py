"""Tests for the cost-model memoization layer."""

import os
import pickle
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import (
    CacheReport,
    MemoCache,
    PersistentMemo,
    SweepStats,
    cost_model_fingerprint,
    get_cache,
    memoized,
)
from repro.exec.memo import cache_delta, cache_snapshot, merge_deltas
from repro.hardware import AMPERE
from repro.model import GPT_13B
from repro.model.blocks import block_cost


def test_memoized_hits_on_repeat_call():
    calls = []

    @memoized("test-dummy-counting")
    def slow_double(x):
        calls.append(x)
        return 2 * x

    assert slow_double(21) == 42
    assert slow_double(21) == 42
    assert calls == [21]  # second call served from cache
    cache = get_cache("test-dummy-counting")
    assert cache.hits == 1 and cache.misses == 1


def test_memoized_distinguishes_kwargs():
    @memoized("test-dummy-kwargs")
    def f(a, b=1):
        return (a, b)

    assert f(1, b=2) == (1, 2)
    assert f(1, b=3) == (1, 3)
    assert get_cache("test-dummy-kwargs").misses == 2


def test_memoized_bypasses_unhashable_arguments():
    @memoized("test-dummy-unhashable")
    def total(xs):
        return sum(xs)

    assert total([1, 2, 3]) == 6
    assert total([1, 2, 3]) == 6  # lists are unhashable: plain calls
    cache = get_cache("test-dummy-unhashable")
    assert cache.hits == 0 and cache.misses == 2


def test_block_cost_is_memoized():
    cache = block_cost.cache
    model = GPT_13B.with_options(seq_len=1024)  # unique key for this test
    before = (cache.hits, cache.misses)
    a = block_cost(model, AMPERE, tp=2, micro_batch=1)
    b = block_cost(model, AMPERE, tp=2, micro_batch=1)
    assert a is b  # the literal cached object
    assert cache.hits == before[0] + 1
    assert cache.misses == before[1] + 1


def test_snapshot_delta_and_merge():
    @memoized("test-dummy-delta")
    def f(x):
        return x

    before = cache_snapshot()
    f(1)
    f(1)
    delta = cache_delta(before, cache_snapshot())
    assert delta["test-dummy-delta"] == (1, 1, 0)
    assert merge_deltas([delta, delta])["test-dummy-delta"] == (2, 2, 0)


def test_clear_keeps_counters():
    @memoized("test-dummy-clear")
    def f(x):
        return x

    f(5), f(5)
    cache = get_cache("test-dummy-clear")
    cache.clear()
    assert cache.hits == 1 and not cache.store
    f(5)  # re-miss after clear
    assert cache.misses == 2


def test_sweep_stats_report():
    stats = SweepStats.from_counters(
        {"block_cost": (6, 2), "collective_cost": (0, 0)}, n_tasks=4, workers=0
    )
    assert stats.hits == 6 and stats.misses == 2
    assert stats.hit_rate == pytest.approx(0.75)
    assert stats.caches["block_cost"] == CacheReport(hits=6, misses=2)
    text = stats.describe()
    assert "4 tasks" in text and "serial" in text and "block_cost" in text


def test_sweep_stats_empty_is_safe():
    stats = SweepStats(n_tasks=0, workers=3)
    assert stats.hit_rate == 0.0
    assert "3 workers" in stats.describe()


# -- bounded caches: LRU eviction ---------------------------------------------


def test_memo_cache_evicts_least_recently_used():
    cache = MemoCache("test-lru", maxsize=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refreshes "a": "b" is now the LRU entry
    cache.put("c", 3)
    assert cache.evictions == 1
    assert "b" not in cache.store
    assert cache.get("a") == 1 and cache.get("c") == 3


class CountingKey:
    """A key that counts how often it is hashed."""

    def __init__(self):
        self.hashes = 0

    def __hash__(self):
        self.hashes += 1
        return 7

    def __eq__(self, other):
        return self is other


def test_memo_hit_hashes_its_key_once_or_twice_on_an_lru():
    for maxsize, most in ((None, 1), (2, 2)):
        cache = MemoCache(f"test-hashes-{maxsize}", maxsize=maxsize)
        key = CountingKey()
        assert cache.lookup(key, lambda: 1) == 1
        key.hashes = 0
        assert cache.lookup(key, lambda: 2) == 1  # a hit
        assert key.hashes <= most and cache.hits == 1


def test_memoized_hit_hashes_its_arguments_once():
    @memoized("test-dummy-hashes")
    def ident(x):
        return x

    key = CountingKey()
    assert ident(key) is key
    key.hashes = 0
    assert ident(key) is key
    assert key.hashes == 1


def test_memo_cache_unbounded_by_default():
    cache = MemoCache("test-unbounded")
    for i in range(1000):
        cache.put(i, i)
    assert len(cache.store) == 1000 and cache.evictions == 0


def test_memo_cache_maxsize_validation():
    with pytest.raises(ValueError):
        MemoCache("bad", maxsize=0)
    with pytest.raises(ValueError):
        get_cache("bad", maxsize=-1)


def test_memoized_with_maxsize_evicts_and_recomputes():
    calls = []

    @memoized("test-lru-decorated", maxsize=2)
    def f(x):
        calls.append(x)
        return x * 10

    f(1), f(2), f(3)  # inserting 3 evicts 1
    cache = get_cache("test-lru-decorated")
    assert cache.evictions == 1
    assert f(1) == 10  # recomputed, not served stale
    assert calls == [1, 2, 3, 1]


def test_eviction_snapshot_delta():
    cache = get_cache("test-evict-snap", maxsize=1)
    before = cache_snapshot()
    cache.put("a", 1)
    cache.put("b", 2)
    delta = cache_delta(before, cache_snapshot())
    assert delta["test-evict-snap"] == (0, 0, 1)


def test_sweep_stats_reports_evictions():
    stats = SweepStats.from_counters(
        {"block_cost": (6, 2, 3), "other": (0, 0, 1)}, n_tasks=4, workers=0
    )
    assert stats.caches["block_cost"].evictions == 3
    assert stats.caches["other"] == CacheReport(evictions=1)
    assert "3 evicted" in stats.describe()


# -- persistent cross-run memo ------------------------------------------------


def test_persistent_memo_round_trip(tmp_path):
    path = str(tmp_path / "memo.pkl")
    with PersistentMemo(path) as memo:
        memo.put("k1", {"time": 1.5})
        memo.put("k2", [1, 2, 3])
        assert memo.get("k1") == {"time": 1.5}
        assert memo.hits == 1 and memo.misses == 0

    reloaded = PersistentMemo(path)
    assert len(reloaded) == 2
    assert reloaded.get("k1") == {"time": 1.5} and reloaded.get("k2") == [1, 2, 3]
    assert reloaded.get("absent", "fallback") == "fallback"
    assert reloaded.misses == 1


def test_persistent_memo_fingerprint_invalidates(tmp_path):
    path = str(tmp_path / "memo.pkl")
    with PersistentMemo(path, fingerprint="model-v1") as memo:
        memo.put("k", 42)

    stale = PersistentMemo(path, fingerprint="model-v2")
    assert len(stale) == 0  # old prices must not leak across code changes
    assert stale.stale_dropped == 1

    fresh = PersistentMemo(path, fingerprint="model-v1")
    assert fresh.get("k") == 42  # matching fingerprint keeps entries


def test_persistent_memo_survives_corrupt_file(tmp_path):
    path = tmp_path / "memo.pkl"
    path.write_bytes(b"this is not a pickle")
    memo = PersistentMemo(str(path))
    assert len(memo) == 0
    memo.put("k", 1)
    memo.flush()
    assert PersistentMemo(str(memo.path)).get("k") == 1


_VALID_STORE = pickle.dumps({"fingerprint": "fp", "entries": {"a": 1.5, "b": (1, "x")}})


@st.composite
def _corrupted_stores(draw):
    """A valid store file with one to four bytes overwritten."""
    data = bytearray(_VALID_STORE)
    for _ in range(draw(st.integers(1, 4))):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data)


@settings(max_examples=100, deadline=None)
@given(data=st.binary(max_size=64) | _corrupted_stores())
def test_persistent_memo_loads_any_file(data):
    """Whatever bytes the file holds, the store loads (empty when the
    file is not a store), and a later flush writes a file that loads."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "memo.pkl")
        with open(path, "wb") as fh:
            fh.write(data)
        memo = PersistentMemo(path, fingerprint="fp")
        assert isinstance(memo.entries, dict)
        memo.put("k", 1)
        memo.flush()
        reloaded = PersistentMemo(path, fingerprint="fp")
        assert reloaded.get("k") == 1
        assert len(reloaded) == len(memo)


def test_persistent_memo_flush_is_noop_when_clean(tmp_path):
    path = str(tmp_path / "memo.pkl")
    memo = PersistentMemo(path)
    memo.flush()  # nothing written, nothing to persist
    import os

    assert not os.path.exists(path)


def test_cost_model_fingerprint_is_stable_and_short():
    fp = cost_model_fingerprint()
    assert fp == cost_model_fingerprint()
    assert len(fp) == 16 and all(c in "0123456789abcdef" for c in fp)


def _package_copy(tmp_path, monkeypatch):
    """A copy of the ``repro`` sources that the fingerprint reads instead."""
    import shutil
    from pathlib import Path

    import repro

    source = Path(repro.__file__).resolve().parent
    copy = tmp_path / "repro"
    shutil.copytree(source, copy, ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(repro, "__file__", str(copy / "__init__.py"))
    return copy


def _edit(copy, module):
    with open(copy / module, "a", encoding="utf-8") as fh:
        fh.write("\n# edited\n")


def test_fingerprint_changes_on_gpu_source_byte_change(tmp_path, monkeypatch):
    """Editing a calibration constant in gpu.py must version persistent caches.

    Regression: gpu.py/nic.py were once missing from a hand-kept module
    list, so a gemm_flops_half edit left cost_model_fingerprint()
    unchanged and stale prices leaked out of PersistentMemo.
    """
    baseline = cost_model_fingerprint()
    copy = _package_copy(tmp_path, monkeypatch)
    assert cost_model_fingerprint() == baseline  # content, not location
    _edit(copy, "hardware/gpu.py")
    assert cost_model_fingerprint() != baseline


def test_fingerprint_skips_dangling_editor_lock(tmp_path, monkeypatch):
    """Regression: an editor's lock symlink (``.#cli.py`` pointing at
    nothing) made the fingerprint raise, so ``--cache-dir`` runs failed
    while a module was open in the editor."""
    baseline = cost_model_fingerprint()
    copy = _package_copy(tmp_path, monkeypatch)
    (copy / ".#cli.py").symlink_to("user@host.1234")
    assert cost_model_fingerprint() == baseline
    with PersistentMemo(str(tmp_path / "memo.pkl")) as memo:
        memo.put("plan", 1)


@pytest.mark.parametrize(
    "module",
    ["fault/faults.py", "scheduler/scheduler.py", "network/pfc.py"],
    ids=["faults", "scheduler", "pfc"],
)
def test_module_edit_misses_persistent_cache(module, tmp_path, monkeypatch):
    """Regression: the fingerprint once hashed a 17-module list that left
    out the fault, scheduler and PFC models, so after an edit to one of
    them ``mc --cache-dir`` still served the old campaign."""
    copy = _package_copy(tmp_path, monkeypatch)
    path = str(tmp_path / "memo.pkl")
    with PersistentMemo(path) as memo:
        memo.put("campaign", 42)
    before = cost_model_fingerprint()
    _edit(copy, module)
    assert cost_model_fingerprint() != before
    reloaded = PersistentMemo(path)
    assert reloaded.stale_dropped > 0
    assert reloaded.get("campaign") is None
    assert reloaded.misses == 1
