"""Transformer model accounting: specs, FLOPs, operators, blocks, memory."""

from .blocks import BlockCost, activation_bytes, block_cost, tp_collective_time
from .flops import (
    iteration_model_flops,
    layer_forward_flops,
    model_flops_per_token,
    tokens_per_second,
    training_days,
)
from .memory import MemoryBreakdown, checkpoint_bytes_per_gpu, fits, memory_breakdown
from .transformer import GPT_13B, GPT_175B, GPT_530B, MODEL_CATALOG, ModelSpec

__all__ = [
    "BlockCost",
    "GPT_13B",
    "GPT_175B",
    "GPT_530B",
    "MODEL_CATALOG",
    "MemoryBreakdown",
    "ModelSpec",
    "activation_bytes",
    "block_cost",
    "checkpoint_bytes_per_gpu",
    "fits",
    "iteration_model_flops",
    "layer_forward_flops",
    "memory_breakdown",
    "model_flops_per_token",
    "tokens_per_second",
    "tp_collective_time",
    "training_days",
]
