"""Tests for block costs, operators and memory accounting."""

import pytest

from repro.hardware import AMPERE
from repro.model import GPT_175B, block_cost, fits, memory_breakdown, tp_collective_time
from repro.model.blocks import activation_bytes
from repro.model.memory import checkpoint_bytes_per_gpu
from repro.model.operators import (
    attention_core_cost,
    gelu_cost,
    layernorm_cost,
    logits_cost,
)


def test_parallel_block_halves_tp_ops():
    serial = block_cost(GPT_175B, AMPERE, tp=8, micro_batch=1)
    ptb = block_cost(
        GPT_175B.with_options(parallel_block=True), AMPERE, tp=8, micro_batch=1
    )
    assert serial.tp_ops_forward == 4
    assert ptb.tp_ops_forward == 2
    assert ptb.forward_tp_comm == pytest.approx(serial.forward_tp_comm / 2)


def test_parallel_block_reduces_compute_slightly():
    serial = block_cost(GPT_175B, AMPERE, tp=8, micro_batch=1)
    ptb = block_cost(
        GPT_175B.with_options(parallel_block=True), AMPERE, tp=8, micro_batch=1
    )
    # One fewer LayerNorm + dropout/residual: small but strictly positive.
    assert ptb.forward_compute < serial.forward_compute


def test_swa_reduces_attention_time():
    full = block_cost(GPT_175B, AMPERE, tp=8, micro_batch=1)
    swa = block_cost(
        GPT_175B.with_options(attention_window=1024), AMPERE, tp=8, micro_batch=1
    )
    assert swa.forward_compute < full.forward_compute


def test_flash_attention_faster_than_naive():
    naive = attention_core_cost(GPT_175B, AMPERE, tp=8, micro_batch=1, flash_attention=False)
    flash = attention_core_cost(GPT_175B, AMPERE, tp=8, micro_batch=1, flash_attention=True)
    assert flash.forward < naive.forward
    assert flash.backward < naive.backward


def test_fused_kernels_faster():
    unfused = layernorm_cost(GPT_175B, AMPERE, tp=8, micro_batch=1, fused=False)
    fused = layernorm_cost(GPT_175B, AMPERE, tp=8, micro_batch=1, fused=True)
    assert fused.forward < unfused.forward
    ug = gelu_cost(GPT_175B, AMPERE, tp=8, micro_batch=1, fused=False)
    fg = gelu_cost(GPT_175B, AMPERE, tp=8, micro_batch=1, fused=True)
    assert fg.forward < ug.forward


def test_backward_roughly_twice_forward():
    cost = block_cost(GPT_175B, AMPERE, tp=8, micro_batch=1)
    assert 1.6 < cost.backward_compute / cost.forward_compute < 2.4


def test_tp_collective_time_zero_for_tp1():
    assert tp_collective_time(GPT_175B, AMPERE, tp=1, micro_batch=1) == 0.0


def test_tp_collective_time_reasonable():
    # AG of a 50 MB activation over 8-way NVLink: sub-millisecond.
    t = tp_collective_time(GPT_175B, AMPERE, tp=8, micro_batch=1)
    assert 50e-6 < t < 1e-3


def test_activation_bytes():
    assert activation_bytes(GPT_175B, 1) == 2048 * 12288 * 2
    assert activation_bytes(GPT_175B, 4) == 4 * 2048 * 12288 * 2


def test_block_cost_validation():
    with pytest.raises(ValueError):
        block_cost(GPT_175B, AMPERE, tp=0, micro_batch=1)
    with pytest.raises(ValueError):
        block_cost(GPT_175B, AMPERE, tp=8, micro_batch=0)


def test_logits_cost_positive_and_sharded():
    tp8 = logits_cost(GPT_175B, AMPERE, tp=8, micro_batch=1)
    tp1 = logits_cost(GPT_175B, AMPERE, tp=1, micro_batch=1)
    assert 0 < tp8.forward < tp1.forward


def test_memory_175b_fits_paper_config():
    # Table 1/2: 175B with tp=8, pp=8, interleave 6 fits on 80 GB parts.
    assert fits(GPT_175B, AMPERE, tp=8, pp=8, dp=4, micro_batch=1, vpp=6)


def test_memory_does_not_fit_without_model_parallelism():
    assert not fits(GPT_175B, AMPERE, tp=1, pp=1, dp=8, micro_batch=1)


def test_memory_breakdown_components_positive():
    b = memory_breakdown(GPT_175B, tp=8, pp=8, dp=4, micro_batch=1, vpp=6)
    assert b.parameters > 0 and b.gradients > 0
    assert b.optimizer_states > 0 and b.activations > 0
    assert b.total == pytest.approx(
        b.parameters + b.gradients + b.optimizer_states + b.activations
    )


def test_zero2_shards_grads_and_optimizer():
    z0 = memory_breakdown(GPT_175B, tp=8, pp=8, dp=4, micro_batch=1, zero_stage=0)
    z2 = memory_breakdown(GPT_175B, tp=8, pp=8, dp=4, micro_batch=1, zero_stage=2)
    assert z2.optimizer_states == pytest.approx(z0.optimizer_states / 4)
    assert z2.gradients == pytest.approx(z0.gradients / 4)
    assert z2.parameters == z0.parameters


def test_checkpoint_bytes():
    # 14 bytes/param: bf16 weights + fp32 master/moments.
    total = GPT_175B.n_params * 14
    per_gpu = checkpoint_bytes_per_gpu(GPT_175B, tp=8, pp=8, dp=4)
    assert 0 < per_gpu < total
