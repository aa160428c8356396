"""Tests for the iteration engine against paper anchors (Tables 2 & 3)."""

import pytest

from repro.core.features import (
    MEGASCALE,
    MEGASCALE_ISO_BATCH,
    MEGATRON_LM,
    ablation_sequence,
)
from repro.model import GPT_175B
from repro.parallel import ParallelPlan, plan_for_gpus
from repro.training import IterationEngine, expected_job_slowdown


PLAN_256 = plan_for_gpus(256, tp=8, pp=8, vpp=6)


@pytest.fixture(scope="module")
def engines():
    return {
        "megatron": IterationEngine(GPT_175B, PLAN_256, MEGATRON_LM),
        "megascale": IterationEngine(GPT_175B, PLAN_256, MEGASCALE),
    }


def test_baseline_mfu_near_paper_anchor(engines):
    # Table 3 baseline: 47.7% MFU at 256 GPUs, batch 256.
    r = engines["megatron"].simulate(256)
    assert r.mfu == pytest.approx(0.477, abs=0.03)


def test_megascale_mfu_near_paper_anchor(engines):
    # Table 3 full stack: 65.3% at batch 768.
    r = engines["megascale"].simulate(768)
    assert r.mfu == pytest.approx(0.653, abs=0.03)


def test_table2_256gpu_iteration_times(engines):
    # Table 2 @ 256 GPUs, batch 768: Megatron 40.0 s, MegaScale 32.0 s.
    mt = engines["megatron"].simulate(768, speed_factor=expected_job_slowdown(32))
    ms = engines["megascale"].simulate(768)
    assert mt.iteration_time == pytest.approx(40.0, rel=0.08)
    assert ms.iteration_time == pytest.approx(32.0, rel=0.08)


def test_megascale_always_faster(engines):
    for bs in (256, 768):
        mt = engines["megatron"].simulate(bs)
        ms = engines["megascale"].simulate(bs)
        assert ms.iteration_time < mt.iteration_time


def test_speedup_in_paper_range(engines):
    # Table 2: 1.23x - 1.34x across scales; at 256 GPUs paper shows 1.23x.
    mt = engines["megatron"].simulate(768, speed_factor=expected_job_slowdown(32))
    ms = engines["megascale"].simulate(768)
    assert 1.15 < ms.mfu / mt.mfu < 1.45


def test_ablation_ladder_monotone():
    prev = 0.0
    for label, feats, scale in ablation_sequence():
        r = IterationEngine(GPT_175B, PLAN_256, feats).simulate(256 * scale)
        assert r.mfu > prev, f"{label} did not improve MFU"
        prev = r.mfu


def test_ablation_total_improvement_near_paper():
    steps = ablation_sequence()
    base = IterationEngine(GPT_175B, PLAN_256, steps[0][1]).simulate(256)
    full = IterationEngine(GPT_175B, PLAN_256, steps[-1][1]).simulate(768)
    # Paper: 47.7% -> 65.3%, a 17.6-point gain.
    gain = (full.mfu - base.mfu) * 100
    assert 12.0 < gain < 22.0


def test_strong_scaling_mfu_declines(engines):
    # Fixed batch, more GPUs -> lower MFU (Table 2's trend).
    mfus = []
    for n in (3072, 6144, 12288):
        plan = plan_for_gpus(n, tp=8, pp=8, vpp=6)
        r = IterationEngine(GPT_175B, plan, MEGASCALE).simulate(6144)
        mfus.append(r.mfu)
    assert mfus[0] > mfus[1] > mfus[2]
    assert mfus[2] > 0.50  # still above 50% at 12,288 GPUs


def test_12288_gpu_iteration_time_near_paper():
    plan = plan_for_gpus(12288, tp=8, pp=8, vpp=6)
    ms = IterationEngine(GPT_175B, plan, MEGASCALE).simulate(6144)
    # Paper: 6.34 s; shape target within ~15%.
    assert ms.iteration_time == pytest.approx(6.34, rel=0.15)


def test_stage_speed_straggler_slows_iteration(engines):
    clean = engines["megascale"].simulate(768)
    speeds = [1.0] * 8
    speeds[3] = 0.9  # one slow stage
    slow = engines["megascale"].simulate(768, stage_speed=speeds)
    assert slow.iteration_time > clean.iteration_time
    # A single 10%-slow stage gates the whole synchronous pipeline.
    assert slow.iteration_time > clean.iteration_time * 1.05


def test_global_speed_factor(engines):
    clean = engines["megascale"].simulate(768)
    slow = engines["megascale"].simulate(768, speed_factor=0.9)
    assert slow.pipeline_time == pytest.approx(clean.pipeline_time / 0.9, rel=0.01)


def test_perturbation_adds_directly(engines):
    base = engines["megascale"].simulate(768)
    shifted = engines["megascale"].simulate(768, perturbation=0.5)
    assert shifted.iteration_time == pytest.approx(base.iteration_time + 0.5)


def test_bubble_fraction_shrinks_with_more_microbatches(engines):
    small = engines["megascale"].simulate(256)  # m = 64
    large = engines["megascale"].simulate(1024)  # m = 256
    assert large.bubble_fraction < small.bubble_fraction


def test_interleaving_reduces_bubbles():
    plan_v1 = plan_for_gpus(256, tp=8, pp=8, vpp=1)
    plan_v6 = PLAN_256
    r1 = IterationEngine(GPT_175B, plan_v1, MEGASCALE).simulate(256)
    r6 = IterationEngine(GPT_175B, plan_v6, MEGASCALE).simulate(256)
    assert r6.bubble_fraction < r1.bubble_fraction


def test_validation(engines):
    with pytest.raises(ValueError):
        engines["megascale"].simulate(768, speed_factor=0.0)
    with pytest.raises(ValueError):
        engines["megascale"].simulate(768, stage_speed=[1.0] * 3)
    with pytest.raises(ValueError):
        engines["megascale"].simulate(768, stage_speed=[0.0] * 8)
    with pytest.raises(ValueError):
        engines["megascale"].simulate(100)  # not divisible


def test_result_breakdown_consistency(engines):
    r = engines["megascale"].simulate(768)
    assert r.iteration_time == pytest.approx(
        r.data_stall + r.pipeline_time + r.dp_exposed + r.optimizer_time + r.perturbation
    )
    assert 0 < r.compute_time <= r.pipeline_time
    assert r.tokens_per_second == pytest.approx(768 * 2048 / r.iteration_time)


# -- pipeline NIC send accounting ------------------------------------------------


def test_pp_send_counts_exclude_edge_chunks(engines):
    # pp=8, vpp=6: the last stage's final forward chunk and the first
    # stage's first backward chunk never hit the NIC.
    engine = engines["megascale"]
    m = 4
    counts = engine.pp_send_counts(m)
    assert len(counts) == 8
    assert counts[0] == m * (2 * 6 - 1)  # first stage keeps one B chunk
    assert counts[-1] == m * (2 * 6 - 1)  # last stage keeps one F chunk
    assert all(c == m * 2 * 6 for c in counts[1:-1])  # middle stages send all
    # Total sends across the pipeline: every task minus the two locals.
    assert sum(counts) == 2 * m * (8 * 6 - 1)


def test_pp_send_counts_match_task_sends_predicate():
    # The closed form counts what the executed schedule sends: every
    # (kind, chunk) task per micro-batch that _task_sends lets leave the GPU.
    for pp, vpp in [(8, 6), (4, 3), (3, 1), (2, 2), (2, 1), (1, 1)]:
        plan = ParallelPlan(dp=1, tp=8, pp=pp, vpp=vpp)
        engine = IterationEngine(GPT_175B, plan, MEGASCALE)
        for m in (1, 3):
            brute = [
                m * sum(engine._task_sends(s, kind, c) for kind in ("F", "B") for c in range(vpp))
                for s in range(pp)
            ]
            assert engine.pp_send_counts(m) == brute, (pp, vpp, m)
    with pytest.raises(ValueError):
        engine.pp_send_counts(0)


def test_two_stage_pipeline_not_overcounted():
    # Regression: the old accounting charged 2*m*vpp sends to every rank;
    # in a 2-stage pipeline each rank actually sends 2*vpp - 1 per
    # micro-batch, so the NIC budget was underestimated.
    plan = plan_for_gpus(128, tp=8, pp=2, vpp=2)
    engine = IterationEngine(GPT_175B, plan, MEGASCALE)
    m = 8
    counts = engine.pp_send_counts(m)
    assert counts == [m * 3, m * 3]
    assert max(counts) < 2 * m * plan.vpp
    # The engine still prices the config end to end.
    assert engine.simulate(64).iteration_time > 0
