"""Tests for model specs and FLOPs accounting against paper anchors."""

import pytest

from repro.model import (
    GPT_13B,
    GPT_175B,
    GPT_530B,
    ModelSpec,
    iteration_model_flops,
    layer_forward_flops,
    model_flops_per_token,
    tokens_per_second,
    training_days,
)


def test_table1_parameter_counts():
    # Table 1: the named sizes should match computed counts within 2%.
    assert GPT_175B.n_params == pytest.approx(175e9, rel=0.02)
    assert GPT_530B.n_params == pytest.approx(530e9, rel=0.02)
    assert GPT_13B.n_params == pytest.approx(13e9, rel=0.15)


def test_table1_configs():
    assert (GPT_175B.n_heads, GPT_175B.hidden_size, GPT_175B.n_layers) == (128, 12288, 96)
    assert (GPT_530B.n_heads, GPT_530B.hidden_size, GPT_530B.n_layers) == (160, 20480, 105)
    assert GPT_175B.seq_len == 2048
    assert GPT_175B.vocab_size == 64_000


def test_flops_per_token_near_6n():
    # fwd+bwd GEMM flops per token ~ 6N plus attention correction.
    per_token = model_flops_per_token(GPT_175B)
    assert 6 * GPT_175B.n_params < per_token < 6.5 * GPT_175B.n_params


def test_table2_throughput_consistency():
    # Table 2 row: MegaScale 12288 GPUs, iteration 6.34 s, 1984.0k tokens/s.
    rate = tokens_per_second(GPT_175B, global_batch=6144, iteration_time=6.34)
    assert rate == pytest.approx(1984.0e3, rel=0.01)


def test_table2_mfu_consistency():
    # Table 2 row: MegaScale 12288 GPUs @ 6.34 s -> 55.2% MFU.
    value = iteration_model_flops(GPT_175B, 6144) / 6.34 / (12288 * 312e12)
    assert value == pytest.approx(0.552, abs=0.015)


def test_table2_training_days_consistency():
    # Table 2: 300B tokens at 1984k tokens/s -> 1.75 days.
    days = training_days(GPT_175B, 6144, 6.34, total_tokens=300e9)
    assert days == pytest.approx(1.75, abs=0.02)


def test_swa_reduces_executed_but_not_model_flops():
    full = GPT_175B
    swa = GPT_175B.with_options(attention_window=1024)
    assert model_flops_per_token(swa) == model_flops_per_token(full)
    assert layer_forward_flops(swa, batch=1).total < layer_forward_flops(full, batch=1).total


def test_layer_flops_scale_linearly_with_batch():
    one = layer_forward_flops(GPT_175B, batch=1)
    four = layer_forward_flops(GPT_175B, batch=4)
    assert four.total == pytest.approx(4 * one.total)


def test_layer_flops_paths_partition_total():
    f = layer_forward_flops(GPT_175B, batch=1)
    assert f.total == pytest.approx(f.attention_path + f.ffn_path)


def test_iteration_flops_scale_with_batch():
    a = iteration_model_flops(GPT_175B, 256)
    b = iteration_model_flops(GPT_175B, 768)
    assert b == pytest.approx(3 * a)


def test_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec(name="bad", n_layers=2, hidden_size=100, n_heads=3)
    with pytest.raises(ValueError):
        ModelSpec(name="bad", n_layers=0, hidden_size=128, n_heads=2)
    with pytest.raises(ValueError):
        ModelSpec(name="bad", n_layers=2, hidden_size=128, n_heads=2, attention_window=0)


def test_with_options_round_trip():
    spec = GPT_175B.with_options(parallel_block=True, attention_window=1024)
    assert spec.parallel_block
    assert spec.effective_window == 1024
    assert spec.n_layers == GPT_175B.n_layers
    # Window larger than seq_len is capped.
    wide = GPT_13B.with_options(attention_window=10_000)
    assert wide.effective_window == wide.seq_len
