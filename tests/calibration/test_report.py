"""Tests for the residual report and the CI drift gate."""

import json

import pytest

from repro.calibration import (
    CalibratedProfile,
    calibration_report,
    check_drift,
    load_anchors,
    load_baseline,
)
from tests.calibration.test_fit import TINY_A, TINY_B, _synthetic_anchor


def small_anchors():
    probes = [
        _synthetic_anchor(TINY_A, 1, 1, 2, 8, published=0.5),
        _synthetic_anchor(TINY_B, 2, 1, 4, 8, published=0.5),
    ]
    return probes


def test_report_rows_follow_anchor_order():
    anchors = small_anchors()
    report = calibration_report(anchors)
    assert [r.anchor_id for r in report.rows] == [a.id for a in anchors]
    for row in report.rows:
        assert row.predicted > 0
        assert row.rel_error == (row.predicted - row.published) / row.published
        terms = dict(row.terms)
        assert sum(terms.values()) == pytest.approx(row.iteration_time)


def test_report_json_is_byte_identical_across_runs():
    anchors = small_anchors()
    a = calibration_report(anchors).to_json()
    b = calibration_report(anchors).to_json()
    assert a == b
    payload = json.loads(a)  # valid JSON with the expected shape
    assert len(payload["anchors"]) == len(anchors)
    assert payload["profile"] is None


def test_report_json_is_byte_identical_under_workers():
    anchors = small_anchors()
    serial = calibration_report(anchors, workers=0).to_json()
    parallel = calibration_report(anchors, workers=2).to_json()
    assert serial == parallel


def test_report_records_profile_and_tolerance_verdicts():
    anchors = small_anchors()
    profile = CalibratedProfile(gemm_eff_max=0.7, source="unit-test")
    report = calibration_report(anchors, profile=profile)
    assert report.profile == profile
    payload = json.loads(report.to_json())
    assert payload["profile"]["source"] == "unit-test"
    assert report.row(anchors[0].id).anchor_id == anchors[0].id
    with pytest.raises(KeyError):
        report.row("nope")
    text = report.describe()
    assert anchors[0].id in text and "max |rel err|" in text


def test_drift_gate_passes_against_own_baseline():
    report = calibration_report(small_anchors())
    assert check_drift(report, report.to_dict()) == []


def test_drift_gate_catches_prediction_drift():
    report = calibration_report(small_anchors())
    baseline = report.to_dict()
    baseline["anchors"][0]["predicted"] *= 1.10  # pretend the model moved 10%
    violations = check_drift(report, baseline, drift_tolerance=0.02)
    assert len(violations) == 1
    assert violations[0].kind == "drift"
    assert baseline["anchors"][0]["anchor_id"] == violations[0].anchor_id
    assert "drifted" in violations[0].describe()
    # a generous tolerance lets the same move pass
    assert check_drift(report, baseline, drift_tolerance=0.25) == []


def test_drift_gate_catches_dropped_anchor():
    anchors = small_anchors()
    baseline = calibration_report(anchors).to_dict()
    report = calibration_report(anchors[:1])  # one anchor silently dropped
    violations = check_drift(report, baseline)
    assert [v.anchor_id for v in violations] == [anchors[1].id]


def test_drift_gate_catches_anchor_missing_from_the_baseline():
    """An empty baseline once passed the gate: with no baseline anchor,
    no prediction was compared."""
    anchors = small_anchors()
    report = calibration_report(anchors)
    for baseline in ({}, {"anchors": []}):
        violations = check_drift(report, baseline)
        assert [v.anchor_id for v in violations] == [a.id for a in anchors]
        assert {v.kind for v in violations} == {"not_in_baseline"}
        assert "not in the baseline; re-save it with --save-baseline" in (
            violations[0].describe()
        )
    partial = report.to_dict()
    del partial["anchors"][0]
    assert [v.anchor_id for v in check_drift(report, partial)] == [anchors[0].id]


@pytest.mark.parametrize(
    "text",
    [
        "[1, 2]",
        "{}",
        '{"anchors": {}}',
        '{"anchors": [1]}',
        '{"anchors": [{"anchor_id": 3, "predicted": 1.0}]}',
        '{"anchors": [{"anchor_id": "a"}]}',
        '{"anchors": [{"anchor_id": "a", "predicted": "1"}]}',
        '{"anchors": [{"anchor_id": "a", "predicted": Infinity}]}',
        '{"anchors": [{"anchor_id": "a", "predicted": 0.0}]}',
        "{",
    ],
    ids=[
        "list", "no-anchors", "anchors-object", "entry-not-an-object", "id-not-a-string",
        "no-prediction", "string-prediction", "infinite-prediction", "zero-prediction",
        "not-json",
    ],
)
def test_baseline_file_lists_ids_with_finite_predictions(text, tmp_path):
    """A bad baseline is one ValueError naming it; a zero prediction is
    bad too, since drift is relative to it."""
    path = tmp_path / "baseline.json"
    path.write_text(text)
    with pytest.raises(ValueError, match="baseline.json"):
        load_baseline(str(path))


def test_saved_report_loads_as_a_baseline(tmp_path):
    report = calibration_report(small_anchors())
    path = str(tmp_path / "baseline.json")
    report.save(path)
    assert check_drift(report, load_baseline(path)) == []


def test_drift_gate_catches_must_match_miss():
    import dataclasses

    anchor = dataclasses.replace(
        small_anchors()[0], published=1e6, must_match=True, tolerance=0.01
    )
    report = calibration_report([anchor])
    violations = check_drift(report, report.to_dict())
    assert len(violations) == 1
    assert violations[0].kind == "must_match"
    assert "must-match" in violations[0].describe()
    with pytest.raises(ValueError):
        check_drift(report, report.to_dict(), drift_tolerance=0.0)


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf")])
def test_drift_gate_rejects_non_finite_tolerance(tolerance):
    """A NaN tolerance used to pass every anchor: no comparison with NaN
    is true, so no drift was ever "greater"."""
    report = calibration_report(small_anchors())
    baseline = report.to_dict()
    baseline["anchors"][0]["predicted"] *= 1.10
    with pytest.raises(ValueError, match="drift_tolerance"):
        check_drift(report, baseline, drift_tolerance=tolerance)


def test_committed_profile_and_baseline_gate(tmp_path):
    """The committed artifacts pass their own gate, and the headline
    175B/12,288-GPU anchor matches the paper within tolerance."""
    import os

    from repro.calibration import default_fixture_dir

    fixture_dir = default_fixture_dir()
    profile_path = os.path.join(fixture_dir, "profile.json")
    baseline_path = os.path.join(fixture_dir, "baseline_report.json")
    assert os.path.exists(profile_path), "committed profile.json missing"
    assert os.path.exists(baseline_path), "committed baseline_report.json missing"
    profile = CalibratedProfile.load(profile_path)
    anchors = load_anchors()
    report = calibration_report(anchors, profile=profile)
    with open(baseline_path, "r", encoding="utf-8") as fh:
        baseline = json.load(fh)
    assert check_drift(report, baseline) == []
    headline = report.row("megascale-nsdi24/175b-12288-megascale/mfu")
    assert headline.within_tolerance, (
        f"headline anchor off by {headline.rel_error:+.1%} "
        f"(tolerance ±{headline.tolerance:.0%})"
    )
