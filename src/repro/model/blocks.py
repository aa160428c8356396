"""Transformer block dataflow: serial vs parallel formulation (§3.1).

The standard (serial) block computes

    y = x + MLP(LN(x + Attention(LN(x))))

which, under tensor + sequence parallelism, needs an all-gather before and
a reduce-scatter after *each* of the attention and MLP sub-blocks: 4
communication operators per layer in the forward pass.

The parallel transformer block (PTB)

    y = x + MLP(LN(x)) + Attention(LN(x))

shares one LayerNorm and one gathered input between both sub-blocks and
sums their outputs before a single reduce-scatter: 2 communication
operators per layer, plus one fewer LayerNorm.  This halved TP/SP traffic
is the mechanism behind the paper's +4.6% MFU from PTB, and the summed
structure is what makes the Figure 3 GEMM/communication pipelining
possible.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..collectives.primitives import ring_all_gather
from ..exec.memo import memoized
from ..hardware.gpu import GpuSpec
from .operators import (
    BYTES_PER_ELEMENT,
    attention_core_cost,
    dropout_residual_cost,
    gelu_cost,
    layer_gemm_costs,
    layernorm_cost,
    logits_cost,
)
from .transformer import ModelSpec

# NVLink per-hop software latency for an intra-node collective step.
NVLINK_STEP_LATENCY = 7e-6


@dataclass(frozen=True)
class BlockCost:
    """Timing components of one transformer layer on one GPU.

    Communication is *not* folded into the compute fields; the overlap
    engine (:mod:`repro.training.overlap`) decides how much of it is
    exposed for a given feature set.
    """

    forward_compute: float
    backward_compute: float
    forward_ffn_gemm: float  # GEMM time available to hide TP comm under
    backward_ffn_gemm: float
    forward_attention_path: float  # attention sub-block (PTB overlap source)
    tp_ops_forward: int  # number of AG+RS operators in forward
    tp_ops_backward: int
    tp_op_time: float  # time of one AG or RS of the full activation

    @property
    def forward_tp_comm(self) -> float:
        return self.tp_ops_forward * self.tp_op_time

    @property
    def backward_tp_comm(self) -> float:
        return self.tp_ops_backward * self.tp_op_time


def activation_bytes(model: ModelSpec, micro_batch: int) -> float:
    """Size of the full hidden activation of one micro-batch."""
    return float(micro_batch * model.seq_len * model.hidden_size * BYTES_PER_ELEMENT)


def tp_collective_time(model: ModelSpec, gpu: GpuSpec, tp: int, micro_batch: int) -> float:
    """Time of one TP/SP all-gather (== reduce-scatter) over NVLink."""
    if tp == 1:
        return 0.0
    size = activation_bytes(model, micro_batch)
    return ring_all_gather(size, tp, gpu.nvlink_bandwidth, NVLINK_STEP_LATENCY)


@memoized("block_cost")
def block_cost(
    model: ModelSpec,
    gpu: GpuSpec,
    tp: int,
    micro_batch: int,
    flash_attention: bool = False,
    fused_kernels: bool = False,
    sequence_parallel: bool = True,
) -> BlockCost:
    """Cost of one transformer layer under the given execution options."""
    if tp < 1:
        raise ValueError("tp must be >= 1")
    if micro_batch < 1:
        raise ValueError("micro_batch must be >= 1")
    gemms = {c.name: c for c in layer_gemm_costs(model, gpu, tp, micro_batch)}
    attn = attention_core_cost(model, gpu, tp, micro_batch, flash_attention)
    ln = layernorm_cost(model, gpu, tp, micro_batch, fused_kernels, sequence_parallel)
    gelu = gelu_cost(model, gpu, tp, micro_batch, fused_kernels)
    dropres = dropout_residual_cost(model, gpu, tp, micro_batch)

    attention_path_fwd = gemms["qkv_proj"].forward + attn.forward + gemms["out_proj"].forward
    attention_path_bwd = gemms["qkv_proj"].backward + attn.backward + gemms["out_proj"].backward
    ffn_fwd = gemms["ffn_up"].forward + gemms["ffn_down"].forward
    ffn_bwd = gemms["ffn_up"].backward + gemms["ffn_down"].backward

    if model.parallel_block:
        n_layernorms = 1
        n_dropres = 1
        tp_ops = 2  # one AG + one RS per direction
    else:
        n_layernorms = 2
        n_dropres = 2
        tp_ops = 4  # AG + RS around each of attention and MLP

    elementwise_fwd = n_layernorms * ln.forward + gelu.forward + n_dropres * dropres.forward
    elementwise_bwd = n_layernorms * ln.backward + gelu.backward + n_dropres * dropres.backward

    return BlockCost(
        forward_compute=attention_path_fwd + ffn_fwd + elementwise_fwd,
        backward_compute=attention_path_bwd + ffn_bwd + elementwise_bwd,
        forward_ffn_gemm=ffn_fwd,
        backward_ffn_gemm=ffn_bwd,
        forward_attention_path=attention_path_fwd,
        tp_ops_forward=tp_ops,
        tp_ops_backward=tp_ops,
        tp_op_time=tp_collective_time(model, gpu, tp, micro_batch) if sequence_parallel or tp > 1 else 0.0,
    )


def embedding_cost(model: ModelSpec, gpu: GpuSpec, tp: int, micro_batch: int) -> float:
    """Token + position embedding lookup (memory bound, first stage only)."""
    act = activation_bytes(model, micro_batch)
    return gpu.memory_bound_time(2.0 * act / tp, n_kernels=2)


def logits_block_cost(model: ModelSpec, gpu: GpuSpec, tp: int, micro_batch: int):
    """Vocabulary projection + loss (last stage only)."""
    return logits_cost(model, gpu, tp, micro_batch)
