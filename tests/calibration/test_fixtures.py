"""Tests for the published-profile fixtures layer."""

import json

import pytest

from repro.calibration import (
    Anchor,
    default_fixture_dir,
    fit_anchors,
    load_anchors,
    load_fixture,
    sc21_hardware_flops,
)
from repro.model import GPT_175B
from repro.parallel import ParallelPlan


def test_default_fixture_dir_has_both_sources():
    anchors = load_anchors()
    sources = {a.source for a in anchors}
    assert sources == {"megatron-lm-sc21", "megascale-nsdi24"}
    assert len(anchors) >= 30
    assert len({a.id for a in anchors}) == len(anchors)  # ids unique


def test_anchor_plans_are_consistent():
    for anchor in load_anchors():
        assert anchor.plan.world_size == anchor.n_gpus
        assert anchor.model.n_layers % anchor.plan.pp == 0
        # every anchor must be simulatable at its batch
        m = anchor.plan.n_microbatches(anchor.global_batch)
        assert m >= 1


def test_sc21_anchors_use_paper_conventions():
    sc21 = [a for a in load_anchors(sources=["megatron-lm-sc21"])]
    assert all(a.metric == "tflops_per_gpu" for a in sc21)
    assert all(a.plan.recompute == "full" for a in sc21)
    assert all(a.model.vocab_size == 51200 for a in sc21)
    assert all(a.system == "plain" for a in sc21)
    # the 530B and 1T rows are report-only (huge task graphs)
    fit_names = {a.id for a in fit_anchors(sc21)}
    assert "megatron-lm-sc21/530b/tflops_per_gpu" not in fit_names
    assert "megatron-lm-sc21/1t/tflops_per_gpu" not in fit_names


def test_megascale_anchor_table2_values():
    anchors = {a.id: a for a in load_anchors(sources=["megascale-nsdi24"])}
    headline = anchors["megascale-nsdi24/175b-12288-megascale/mfu"]
    assert headline.published == 55.2  # the paper's headline MFU
    assert headline.must_match
    assert headline.model is GPT_175B
    assert headline.plan.tp == 8 and headline.plan.pp == 8 and headline.plan.vpp == 6
    # the derived seconds-domain twin exists and is never double-fit
    derived = anchors["megascale-nsdi24/175b-12288-megascale/iteration_time"]
    assert derived.metric == "iteration_time"
    assert not derived.fit
    # derived published time reproduces the published MFU by construction
    from repro.hardware import AMPERE
    from repro.model.flops import iteration_model_flops

    flops = iteration_model_flops(GPT_175B, derived.global_batch)
    mfu = flops / (derived.published * derived.n_gpus * AMPERE.peak_flops)
    assert mfu * 100 == pytest.approx(headline.published)


def test_sc21_hardware_flops_formula():
    # scales linearly in batch and superlinearly in hidden size
    base = sc21_hardware_flops(24, 2304, 51200, 2048, 512)
    assert base > 0
    assert sc21_hardware_flops(24, 2304, 51200, 2048, 1024) == pytest.approx(2 * base)
    # quadratic h^2 term diluted by the fixed vocab projection share
    assert sc21_hardware_flops(24, 4608, 51200, 2048, 512) > 3.5 * base


def test_anchor_validation():
    anchor = load_anchors()[0]
    import dataclasses

    with pytest.raises(ValueError):
        dataclasses.replace(anchor, metric="nonsense")
    with pytest.raises(ValueError):
        dataclasses.replace(anchor, system="windows")
    with pytest.raises(ValueError):
        dataclasses.replace(anchor, published=-1.0)
    with pytest.raises(ValueError):
        dataclasses.replace(anchor, tolerance=0.0)
    with pytest.raises(ValueError):
        dataclasses.replace(anchor, plan=ParallelPlan(dp=1, tp=1, pp=1))


_ROW = {"name": "x", "model": "gpt-13b", "n_gpus": 8, "global_batch": 8,
        "published": 40.0}


@pytest.mark.parametrize(
    "payload",
    [
        {},
        [],
        {"source": 1, "anchors": []},
        {"source": "s"},
        {"source": "s", "anchors": [1]},
        {"source": "s", "defaults": [], "anchors": []},
        {"source": "s", "anchors": [{"name": "x", "n_gpus": 8}]},
        {"source": "s", "anchors": [dict(_ROW, model=None)]},
        {"source": "s", "anchors": [dict(_ROW, model="gpt-9000")]},
        {"source": "s", "anchors": [dict(_ROW, n_gpus="8")]},
        {"source": "s", "anchors": [dict(_ROW, published="x")]},
    ],
    ids=[
        "empty", "list", "source-not-a-string", "no-anchors", "row-not-an-object",
        "defaults-list", "row-lacks-fields", "no-model-no-shape", "unknown-model",
        "string-gpus", "string-published",
    ],
)
def test_bad_fixture_file_is_one_error_naming_it(payload, tmp_path):
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="fixture.json"):
        load_fixture(str(path))


def test_minimal_fixture_loads(tmp_path):
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps({"source": "s", "anchors": [_ROW]}))
    (anchor,) = load_fixture(str(path))
    assert anchor.id == "s/x/mfu" and anchor.n_gpus == 8


def test_anchor_is_hashable_and_picklable():
    import pickle

    anchor = load_anchors()[0]
    assert hash(anchor) == hash(pickle.loads(pickle.dumps(anchor)))
