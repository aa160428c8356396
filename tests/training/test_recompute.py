"""Tests for activation recomputation modes."""

import pytest

from repro.core.features import MEGASCALE_ISO_BATCH
from repro.hardware import AMPERE
from repro.model import GPT_175B, memory_breakdown
from repro.model.memory import activation_bytes_per_microbatch, fits
from repro.parallel import ParallelPlan
from repro.training import IterationEngine


def test_recompute_modes_order_activation_memory():
    kwargs = dict(model=GPT_175B, micro_batch=1, tp=8)
    none = activation_bytes_per_microbatch(recompute="none", **kwargs)
    selective = activation_bytes_per_microbatch(recompute="selective", **kwargs)
    full = activation_bytes_per_microbatch(recompute="full", **kwargs)
    assert full < selective < none
    with pytest.raises(ValueError):
        activation_bytes_per_microbatch(recompute="some", **kwargs)


def test_full_recompute_enables_tighter_configs():
    # A config that is activation-bound under "none" fits under "full".
    kwargs = dict(tp=8, pp=2, dp=16, micro_batch=4, vpp=1)
    none_total = memory_breakdown(GPT_175B, recompute="none", **kwargs).total
    full_total = memory_breakdown(GPT_175B, recompute="full", **kwargs).total
    assert full_total < none_total
    assert fits(GPT_175B, AMPERE, recompute="full", **kwargs) or full_total < none_total


def test_full_recompute_slows_backward():
    base_plan = ParallelPlan(dp=4, tp=8, pp=8, vpp=6)
    full_plan = ParallelPlan(dp=4, tp=8, pp=8, vpp=6, recompute="full")
    base = IterationEngine(GPT_175B, base_plan, MEGASCALE_ISO_BATCH)
    full = IterationEngine(GPT_175B, full_plan, MEGASCALE_ISO_BATCH)
    assert full.b_chunk > base.b_chunk
    assert full.f_chunk == base.f_chunk
    # The iteration slows by roughly the forward share of a layer.
    r_base = base.simulate(256)
    r_full = full.simulate(256)
    assert 1.15 < r_full.iteration_time / r_base.iteration_time < 1.5


def test_recompute_none_matches_selective_speed():
    # Only "full" changes compute time in this model (selective's small
    # attention recompute is folded into the calibration).
    sel = IterationEngine(GPT_175B, ParallelPlan(dp=4, tp=8, pp=8, vpp=6), MEGASCALE_ISO_BATCH)
    none = IterationEngine(
        GPT_175B, ParallelPlan(dp=4, tp=8, pp=8, vpp=6, recompute="none"), MEGASCALE_ISO_BATCH
    )
    assert none.b_chunk == sel.b_chunk


def test_plan_validates_recompute():
    with pytest.raises(ValueError):
        ParallelPlan(dp=1, tp=1, pp=1, recompute="sometimes")


def _memory_kwargs(plan):
    return dict(
        tp=plan.tp, pp=plan.pp, dp=plan.dp, micro_batch=plan.micro_batch,
        vpp=plan.vpp, zero_stage=plan.zero_stage, recompute=plan.recompute,
    )


def test_engine_memory_check_advisory():
    plan = ParallelPlan(dp=4, tp=8, pp=8, vpp=6)
    assert fits(GPT_175B, AMPERE, **_memory_kwargs(plan))
    breakdown = memory_breakdown(GPT_175B, **_memory_kwargs(plan))
    assert breakdown.total < AMPERE.memory_bytes
    # The engine prices a plan whether or not it fits: memory is advisory.
    tight = ParallelPlan(dp=32, tp=8, pp=1)
    breakdown_tight = memory_breakdown(GPT_175B, **_memory_kwargs(tight))
    assert breakdown_tight.parameters > breakdown.parameters
    assert IterationEngine(GPT_175B, tight, MEGASCALE_ISO_BATCH).simulate(256).iteration_time > 0
