"""Campaign engine: determinism across execution paths, aggregation, caching."""

import json

import numpy as np
import pytest

from repro.exec.memo import PersistentMemo
from repro.fault.faults import FaultInjector
from repro.montecarlo import (
    CampaignSpec,
    MetricSummary,
    bootstrap_ci,
    engine,
    run_campaign,
)
from tests.oracles import fault_sampler

# Small enough to keep the suite fast, big enough to produce incidents.
SPEC = CampaignSpec(n_nodes=64)
SEEDS = range(6)
WEEKS = 0.25


class _NeverKeeps(dict):
    """A fixture store that keeps no entry, so every seed rebuilds its own."""

    def __setitem__(self, key, value):
        pass


def _use_oracle_path(monkeypatch):
    """Per-event oracle sampling and unshared fixtures for serial campaigns.

    Returns the list of horizons the oracle sampled, one per injector.
    """
    calls = []

    def oracle(injector, horizon):
        calls.append(horizon)
        return fault_sampler.sample(injector, horizon)

    monkeypatch.setattr(FaultInjector, "sample", oracle)
    monkeypatch.setattr(engine, "_FIXTURES", _NeverKeeps())
    return calls


@pytest.fixture(scope="module")
def chaos_serial():
    return run_campaign("chaos", seeds=SEEDS, weeks=WEEKS, spec=SPEC)


def test_same_seeds_identical_json_serial_vs_parallel(chaos_serial):
    parallel = run_campaign("chaos", seeds=SEEDS, weeks=WEEKS, spec=SPEC, workers=4)
    assert chaos_serial.to_json() == parallel.to_json()


def test_reference_path_matches_optimized_byte_for_byte(chaos_serial, monkeypatch):
    calls = _use_oracle_path(monkeypatch)
    reference = run_campaign("chaos", seeds=SEEDS, weeks=WEEKS, spec=SPEC, workers=0)
    assert len(calls) == len(SEEDS)
    assert chaos_serial.to_json() == reference.to_json()


def test_scheduler_campaign_deterministic_across_workers(monkeypatch):
    serial = run_campaign("scheduler", seeds=range(4), weeks=0.25)
    parallel = run_campaign("scheduler", seeds=range(4), weeks=0.25, workers=4)
    calls = _use_oracle_path(monkeypatch)
    reference = run_campaign("scheduler", seeds=range(4), weeks=0.25, workers=0)
    assert len(calls) == 4
    assert serial.to_json() == parallel.to_json() == reference.to_json()


def test_campaign_json_shape_and_metrics(chaos_serial):
    doc = json.loads(chaos_serial.to_json())
    assert doc["scenario"] == "chaos"
    assert doc["seeds"] == list(SEEDS)
    for name in ("effective_rate", "availability", "mttr_s", "restarts"):
        summary = doc["metrics"][name]
        assert summary["n"] == len(list(SEEDS))
        assert summary["min"] <= summary["p50"] <= summary["p90"] <= summary["max"]
        lo, hi = summary["ci95"]
        assert lo <= hi
        assert len(doc["per_seed"][name]) == len(list(SEEDS))
    assert all(0.0 <= r <= 1.0 for r in doc["per_seed"]["availability"])
    assert sum(doc["incidents"].values()) == sum(doc["per_seed"]["restarts"])
    # no execution-path fields may leak into the deterministic document
    assert "workers" not in doc and "sampler" not in doc


def test_incident_distributions_cover_observed_kinds(chaos_serial):
    doc = json.loads(chaos_serial.to_json())
    assert doc["distributions"]["downtime_s"]["count"] == sum(
        doc["incidents"].values()
    )
    for kind in doc["incidents"]:
        per_kind = doc["distributions"][f"downtime:{kind}"]
        assert per_kind["count"] == doc["incidents"][kind]
        assert per_kind["min"] <= per_kind["p50"] <= per_kind["max"]


def test_persistent_cache_serves_second_campaign(tmp_path):
    path = str(tmp_path / "mc.pkl")
    cache = PersistentMemo(path)
    first = run_campaign("chaos", seeds=range(3), weeks=WEEKS, spec=SPEC, cache=cache)
    assert first.stats.persistent_hits == 0
    cache.flush()

    reloaded = PersistentMemo(path)
    second = run_campaign(
        "chaos", seeds=range(3), weeks=WEEKS, spec=SPEC, cache=reloaded
    )
    assert second.stats.persistent_hits == 3
    assert first.to_json() == second.to_json()


def test_cache_key_excludes_execution_path(tmp_path, monkeypatch):
    """An oracle-path campaign may be served from an optimized run's cache."""
    cache = PersistentMemo(str(tmp_path / "mc.pkl"))
    run_campaign("chaos", seeds=range(2), weeks=WEEKS, spec=SPEC, cache=cache)
    calls = _use_oracle_path(monkeypatch)
    served = run_campaign("chaos", seeds=range(2), weeks=WEEKS, spec=SPEC, cache=cache)
    assert served.stats.persistent_hits == 2
    assert calls == []


def test_spec_changes_change_results():
    base = run_campaign("chaos", seeds=range(2), weeks=WEEKS, spec=SPEC)
    hotter = run_campaign(
        "chaos",
        seeds=range(2),
        weeks=WEEKS,
        spec=CampaignSpec(n_nodes=64, rate_multiplier=40.0),
    )
    assert base.metrics["restarts"].mean < hotter.metrics["restarts"].mean


def test_describe_renders_all_metrics(chaos_serial):
    text = chaos_serial.describe()
    for name in chaos_serial.metrics:
        assert name in text
    assert "95% CI" in text


def test_validation_errors():
    with pytest.raises(ValueError, match="scenario"):
        run_campaign("prod", seeds=range(2))
    with pytest.raises(ValueError, match="seed"):
        run_campaign("chaos", seeds=())
    with pytest.raises(ValueError, match="weeks"):
        run_campaign("chaos", seeds=range(2), weeks=0.0)
    with pytest.raises(ValueError, match="model"):
        CampaignSpec(model="llama")
    with pytest.raises(ValueError, match="spares"):
        CampaignSpec(spares=-1)


def test_spec_fingerprint_is_stable_and_distinguishing():
    assert CampaignSpec().fingerprint() == CampaignSpec().fingerprint()
    assert CampaignSpec().fingerprint() != CampaignSpec(n_nodes=64).fingerprint()


def test_bootstrap_ci_deterministic_and_ordered():
    rng = np.random.default_rng(0)
    values = rng.normal(10.0, 2.0, size=40)
    assert bootstrap_ci(values) == bootstrap_ci(values)
    lo, hi = bootstrap_ci(values)
    assert lo <= float(np.mean(values)) <= hi
    assert bootstrap_ci([5.0]) == (5.0, 5.0)
    with pytest.raises(ValueError, match="confidence"):
        bootstrap_ci(values, confidence=1.5)


def test_metric_summary_from_values():
    summary = MetricSummary.from_values([1.0, 2.0, 3.0, 4.0])
    assert summary.n == 4
    assert summary.mean == 2.5
    assert summary.min == 1.0 and summary.max == 4.0
    assert summary.ci_low <= summary.mean <= summary.ci_high
    with pytest.raises(ValueError):
        MetricSummary.from_values([])
