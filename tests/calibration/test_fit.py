"""Tests for CalibratedProfile and the deterministic least-squares fit."""

import dataclasses

import pytest

from repro.calibration import (
    FIT_PARAMS,
    CalibratedProfile,
    IDENTITY_PROFILE,
    default_profile_constants,
    fit_profile,
    predict_anchor,
    relative_error,
)
from repro.calibration.fixtures import Anchor
from repro.hardware import AMPERE
from repro.model import ModelSpec
from repro.parallel import ParallelPlan

TINY_A = ModelSpec(name="cal-tiny-a", n_layers=4, hidden_size=512, n_heads=8)
TINY_B = ModelSpec(name="cal-tiny-b", n_layers=8, hidden_size=1024, n_heads=16)


def _synthetic_anchor(model, tp, pp, n_gpus, global_batch, published=1.0):
    return Anchor(
        id=f"synthetic/{model.name}-{n_gpus}/iteration_time",
        source="synthetic",
        system="plain",
        model=model,
        plan=ParallelPlan(dp=n_gpus // (tp * pp), tp=tp, pp=pp),
        n_gpus=n_gpus,
        global_batch=global_batch,
        metric="iteration_time",
        published=published,
        tolerance=0.1,
        fit=True,
        must_match=False,
        provenance="synthetic fixture for round-trip testing",
    )


def synthetic_anchors(profile):
    """Anchors whose 'published' values are the simulator's own output
    under a known profile — fitting must recover that profile."""
    shapes = [
        (TINY_A, 1, 1, 2, 8),
        (TINY_A, 2, 1, 4, 8),
        (TINY_B, 1, 2, 4, 8),
        (TINY_B, 2, 2, 8, 16),
    ]
    anchors = []
    for model, tp, pp, n_gpus, batch in shapes:
        probe = _synthetic_anchor(model, tp, pp, n_gpus, batch)
        truth = predict_anchor(probe, profile=profile).predicted
        anchors.append(dataclasses.replace(probe, published=truth))
    return anchors


def test_profile_validation_and_constants():
    with pytest.raises(ValueError):
        CalibratedProfile(gemm_eff_max=1.5)
    with pytest.raises(ValueError):
        CalibratedProfile(cc_efficiency=0.0)
    with pytest.raises(ValueError):
        CalibratedProfile(gemm_flops_half=-1.0)
    profile = CalibratedProfile(gemm_eff_max=0.7, inter_node_latency=1e-5)
    assert profile.constants() == {"gemm_eff_max": 0.7, "inter_node_latency": 1e-5}


@pytest.mark.parametrize(
    "text",
    [
        "[]",
        "{}",
        '{"constants": []}',
        '{"constants": {"gemm_eff_max": "x"}}',
        '{"constants": {"gemm_eff_max": true}}',
        '{"constants": {"gemm_eff_max": NaN}}',
        '{"constants": {"inter_node_latency": 1' + "0" * 400 + "}}",
        '{"constants": {"warp_speed": 9}}',
        '{"constants": {"gemm_eff_max": 1.5}}',
        '{"constants": {}, "source": 3}',
        "{",
    ],
    ids=[
        "list", "no-constants", "constants-list", "string-value", "bool-value",
        "nan-value", "int-beyond-float", "unknown-name", "out-of-range",
        "source-not-a-string", "not-json",
    ],
)
def test_profile_file_maps_known_names_to_finite_numbers(text, tmp_path):
    """A bad profile file is one ValueError naming it, not a traceback."""
    path = tmp_path / "profile.json"
    path.write_text(text)
    with pytest.raises(ValueError, match="profile.json"):
        CalibratedProfile.load(str(path))


def test_apply_gpu_overrides_only_set_fields():
    profile = CalibratedProfile(gemm_eff_max=0.5, kernel_launch_overhead=1e-6)
    spec = profile.apply_gpu(AMPERE)
    assert spec.gemm_eff_max == 0.5
    assert spec.kernel_launch_overhead == 1e-6
    assert spec.gemm_flops_half == AMPERE.gemm_flops_half  # untouched
    assert spec.peak_flops == AMPERE.peak_flops  # datasheet value never fit
    assert spec.name.endswith("-cal")


def test_identity_profile_is_identity():
    assert IDENTITY_PROFILE.apply_gpu(AMPERE) is AMPERE
    assert IDENTITY_PROFILE.constants() == {}


def test_profile_round_trips_through_json(tmp_path):
    profile = CalibratedProfile(
        gemm_eff_max=0.71,
        gemm_flops_half=3.3e10,
        cc_efficiency=0.88,
        source="unit-test",
    )
    path = str(tmp_path / "profile.json")
    profile.save(path)
    assert CalibratedProfile.load(path) == profile
    with pytest.raises(ValueError):
        CalibratedProfile.from_dict({"constants": {"warp_speed": 9}})


def test_default_profile_constants_match_catalog():
    constants = default_profile_constants()
    assert constants["gemm_eff_max"] == AMPERE.gemm_eff_max
    assert constants["gemm_flops_half"] == AMPERE.gemm_flops_half
    assert set(constants) == set(FIT_PARAMS)


def test_relative_error_sign():
    assert relative_error(1.1, 1.0) == pytest.approx(0.1)
    assert relative_error(0.9, 1.0) == pytest.approx(-0.1)


def test_profile_changes_predictions():
    anchor = _synthetic_anchor(TINY_A, 1, 1, 2, 8)
    default = predict_anchor(anchor).predicted
    slower = predict_anchor(
        anchor, profile=CalibratedProfile(gemm_eff_max=0.39)
    ).predicted
    assert slower > default  # halved efficiency -> longer iteration


def test_fit_round_trips_known_constants():
    """Fitting against data generated from known constants recovers them."""
    truth = CalibratedProfile(gemm_eff_max=0.65, gemm_flops_half=45e9)
    anchors = synthetic_anchors(truth)
    result = fit_profile(
        anchors, params=("gemm_eff_max", "gemm_flops_half"), max_evals=150
    )
    assert result.objective < 1e-4  # near-perfect fit on its own data
    assert result.objective < result.initial_objective
    assert result.profile.gemm_eff_max == pytest.approx(0.65, rel=0.05)
    assert result.profile.gemm_flops_half == pytest.approx(45e9, rel=0.25)
    assert result.max_abs_residual < 0.01


def test_fit_is_deterministic():
    truth = CalibratedProfile(gemm_eff_max=0.6)
    anchors = synthetic_anchors(truth)
    a = fit_profile(anchors, params=("gemm_eff_max",), max_evals=40)
    b = fit_profile(anchors, params=("gemm_eff_max",), max_evals=40)
    assert a.profile == b.profile
    assert a.objective == b.objective and a.n_evals == b.n_evals


def test_fit_validation():
    anchors = synthetic_anchors(IDENTITY_PROFILE)
    with pytest.raises(ValueError):
        fit_profile(anchors, params=("warp_speed",))
    with pytest.raises(ValueError):
        fit_profile(anchors, params=())
    with pytest.raises(ValueError):
        fit_profile([dataclasses.replace(a, fit=False) for a in anchors])
