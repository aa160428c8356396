"""Operator-level cost catalog (§3.3 of the paper).

Each transformer layer decomposes into GEMMs (tensor-parallel sharded),
the attention core, and elementwise operators (LayerNorm, GeLU, dropout,
residual adds).  The catalog computes per-operator forward/backward times
on a given GPU under two optimization flags:

* ``flash_attention`` — FlashAttention-2-style core: higher efficiency and
  no materialized score matrix.
* ``fused_kernels`` — fused LayerNorm / GeLU: one kernel launch instead of
  several, and one pass over memory instead of several.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..hardware.gpu import GpuSpec
from .flops import BACKWARD_MULTIPLIER
from .transformer import ModelSpec

BYTES_PER_ELEMENT = 2  # bf16 activations/weights

# Attention-core efficiency (fraction of tensor-core peak).  The naive
# (pre-FlashAttention) implementation is bandwidth-limited by the
# materialized score matrix; FlashAttention-2 tiles it in SRAM.
NAIVE_ATTENTION_EFF = 0.30
FLASH_ATTENTION_EFF = 0.52

# Kernel counts for elementwise groups (launch-overhead accounting).
UNFUSED_LAYERNORM_KERNELS = 4
FUSED_LAYERNORM_KERNELS = 1
UNFUSED_GELU_KERNELS = 3
FUSED_GELU_KERNELS = 1
# Memory passes over the activation for unfused vs fused variants.
UNFUSED_LAYERNORM_PASSES = 4.0
FUSED_LAYERNORM_PASSES = 2.0
UNFUSED_GELU_PASSES = 3.0
FUSED_GELU_PASSES = 2.0


@dataclass(frozen=True)
class OperatorCost:
    """Forward/backward wall time of one operator instance on one GPU."""

    name: str
    kind: str  # "gemm" | "attention" | "elementwise"
    forward: float
    backward: float


def _gemm_cost(gpu: GpuSpec, name: str, forward_flops: float) -> OperatorCost:
    """A sharded GEMM; backward runs dgrad + wgrad, each fwd-sized."""
    fwd = gpu.gemm_time(forward_flops)
    bwd = 2.0 * gpu.gemm_time(forward_flops)
    return OperatorCost(name, "gemm", fwd, bwd)


def attention_core_cost(
    model: ModelSpec,
    gpu: GpuSpec,
    tp: int,
    micro_batch: int,
    flash_attention: bool,
) -> OperatorCost:
    """The QK^T / softmax / PV core, sharded over heads by TP."""
    s = model.seq_len
    w = model.effective_window
    b = micro_batch
    flops = 4.0 * b * s * w * model.hidden_size / tp
    eff = FLASH_ATTENTION_EFF if flash_attention else NAIVE_ATTENTION_EFF
    fwd = flops / (gpu.peak_flops * eff) + gpu.kernel_launch_overhead
    bwd = BACKWARD_MULTIPLIER * flops / (gpu.peak_flops * eff) + gpu.kernel_launch_overhead
    if not flash_attention:
        # Materialized score matrix: written in fwd, re-read in softmax and
        # again in backward.
        score_bytes = b * (model.n_heads / tp) * s * w * BYTES_PER_ELEMENT
        fwd += gpu.memory_bound_time(2.0 * score_bytes, n_kernels=2)
        bwd += gpu.memory_bound_time(3.0 * score_bytes, n_kernels=2)
    return OperatorCost("attention_core", "attention", fwd, bwd)


def layernorm_cost(
    model: ModelSpec, gpu: GpuSpec, tp: int, micro_batch: int, fused: bool, sequence_parallel: bool = True
) -> OperatorCost:
    """One LayerNorm over the hidden activation (sequence-sharded by SP)."""
    shard = tp if sequence_parallel else 1
    act_bytes = micro_batch * model.seq_len * model.hidden_size * BYTES_PER_ELEMENT / shard
    passes = FUSED_LAYERNORM_PASSES if fused else UNFUSED_LAYERNORM_PASSES
    kernels = FUSED_LAYERNORM_KERNELS if fused else UNFUSED_LAYERNORM_KERNELS
    fwd = gpu.memory_bound_time(passes * act_bytes, n_kernels=kernels)
    bwd = gpu.memory_bound_time(1.5 * passes * act_bytes, n_kernels=kernels)
    return OperatorCost("layernorm", "elementwise", fwd, bwd)


def gelu_cost(model: ModelSpec, gpu: GpuSpec, tp: int, micro_batch: int, fused: bool) -> OperatorCost:
    """GeLU over the FFN hidden activation (tensor-sharded by TP)."""
    act_bytes = micro_batch * model.seq_len * model.ffn_hidden * BYTES_PER_ELEMENT / tp
    passes = FUSED_GELU_PASSES if fused else UNFUSED_GELU_PASSES
    kernels = FUSED_GELU_KERNELS if fused else UNFUSED_GELU_KERNELS
    fwd = gpu.memory_bound_time(passes * act_bytes, n_kernels=kernels)
    bwd = gpu.memory_bound_time(1.5 * passes * act_bytes, n_kernels=kernels)
    return OperatorCost("gelu", "elementwise", fwd, bwd)


def dropout_residual_cost(model: ModelSpec, gpu: GpuSpec, tp: int, micro_batch: int) -> OperatorCost:
    """Dropout + residual add on the sequence-sharded activation."""
    act_bytes = micro_batch * model.seq_len * model.hidden_size * BYTES_PER_ELEMENT / tp
    fwd = gpu.memory_bound_time(3.0 * act_bytes, n_kernels=2)
    bwd = gpu.memory_bound_time(2.0 * act_bytes, n_kernels=2)
    return OperatorCost("dropout_residual", "elementwise", fwd, bwd)


def layer_gemm_costs(
    model: ModelSpec, gpu: GpuSpec, tp: int, micro_batch: int
) -> List[OperatorCost]:
    """The four sharded GEMMs of one layer, in execution order."""
    s = model.seq_len
    h = model.hidden_size
    b = micro_batch
    return [
        _gemm_cost(gpu, "qkv_proj", 2.0 * b * s * h * 3 * h / tp),
        _gemm_cost(gpu, "out_proj", 2.0 * b * s * h * h / tp),
        _gemm_cost(gpu, "ffn_up", 2.0 * b * s * h * model.ffn_hidden / tp),
        _gemm_cost(gpu, "ffn_down", 2.0 * b * s * model.ffn_hidden * h / tp),
    ]


def logits_cost(model: ModelSpec, gpu: GpuSpec, tp: int, micro_batch: int) -> OperatorCost:
    """Output vocabulary projection (vocab-sharded by TP) + softmax loss."""
    flops = 2.0 * micro_batch * model.seq_len * model.hidden_size * model.vocab_size / tp
    gemm = _gemm_cost(gpu, "logits", flops)
    softmax_bytes = micro_batch * model.seq_len * model.vocab_size * BYTES_PER_ELEMENT / tp
    extra = gpu.memory_bound_time(2.0 * softmax_bytes, n_kernels=2)
    return OperatorCost("logits", "gemm", gemm.forward + extra, gemm.backward + extra)
