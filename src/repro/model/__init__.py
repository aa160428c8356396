"""Transformer model accounting: specs, FLOPs, operators, blocks, memory."""

from .. import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "blocks": ("block_cost", "tp_collective_time"),
    "flops": (
        "iteration_model_flops",
        "layer_forward_flops",
        "model_flops_per_token",
        "tokens_per_second",
        "training_days",
    ),
    "memory": ("fits", "memory_breakdown"),
    "transformer": ("GPT_13B", "GPT_175B", "GPT_530B", "MODEL_CATALOG", "ModelSpec"),
})
