"""Per-GPU memory accounting and feasibility checks.

Used to validate that a (model, parallelism, batch) configuration fits in
HBM — e.g. why Table 2 drops the global batch from 6144 to 768 below 3072
GPUs — and by the checkpoint subsystem to size the state that must be
dumped (§4.4).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hardware.gpu import GpuSpec
from .operators import BYTES_PER_ELEMENT
from .transformer import ModelSpec

PARAM_BYTES = BYTES_PER_ELEMENT  # bf16 weights
GRAD_BYTES = BYTES_PER_ELEMENT  # bf16 gradients
# ADAM/LAMB master weights + two moments in fp32.
OPTIMIZER_BYTES_PER_PARAM = 12
# Fraction of HBM usable by the framework (allocator overhead, NCCL
# buffers, CUDA context, fragmentation).
USABLE_FRACTION = 0.92


@dataclass(frozen=True)
class MemoryBreakdown:
    """Bytes per GPU, by category."""

    parameters: float
    gradients: float
    optimizer_states: float
    activations: float

    @property
    def total(self) -> float:
        return self.parameters + self.gradients + self.optimizer_states + self.activations


def params_per_gpu(model: ModelSpec, tp: int, pp: int) -> float:
    """Parameter count held by one GPU under TP x PP sharding."""
    if tp < 1 or pp < 1:
        raise ValueError("tp and pp must be >= 1")
    return model.n_params / (tp * pp)


# Stored bytes per (sequence x hidden) element of one layer, by
# recomputation mode (Megatron's accounting, with sequence parallelism):
# "none" keeps every intermediate, "selective" drops the attention
# internals, "full" keeps only the layer input.
ACTIVATION_FACTOR = {"none": 34.0, "selective": 18.0, "full": 2.0}


def activation_bytes_per_microbatch(
    model: ModelSpec, micro_batch: int, tp: int, recompute: str = "selective"
) -> float:
    """Stored activations of one micro-batch of one layer (with SP)."""
    factor = ACTIVATION_FACTOR.get(recompute)
    if factor is None:
        raise ValueError(f"unknown recompute mode {recompute!r}")
    return factor * model.seq_len * micro_batch * model.hidden_size / tp


def memory_breakdown(
    model: ModelSpec,
    tp: int,
    pp: int,
    dp: int,
    micro_batch: int,
    vpp: int = 1,
    zero_stage: int = 2,
    recompute: str = "selective",
) -> MemoryBreakdown:
    """Peak per-GPU memory for interleaved-1F1B training.

    With interleaved scheduling each GPU keeps activations for up to
    ``pp * vpp`` in-flight micro-batches of its ``layers/(pp*vpp)`` layers
    per chunk — i.e. ``pp`` micro-batches per owned layer.
    """
    n_params = params_per_gpu(model, tp, pp)
    parameters = n_params * PARAM_BYTES
    gradients = n_params * GRAD_BYTES
    optimizer = n_params * OPTIMIZER_BYTES_PER_PARAM
    if zero_stage >= 1:
        optimizer /= dp
    if zero_stage >= 2:
        gradients /= dp

    layers_per_gpu = model.n_layers / pp
    per_layer = activation_bytes_per_microbatch(model, micro_batch, tp, recompute)
    in_flight_per_layer = min(pp, max(pp, 1))  # 1F1B bounds in-flight at pp
    activations = layers_per_gpu * per_layer * in_flight_per_layer
    # Interleaving adds (pp - 1) * vpp extra chunk activations of warm-up
    # micro-batches relative to plain 1F1B (Megatron's vpp memory premium).
    if vpp > 1:
        activations *= 1.0 + (vpp - 1) / (2.0 * vpp)
    return MemoryBreakdown(parameters, gradients, optimizer, activations)


def fits(
    model: ModelSpec,
    gpu: GpuSpec,
    tp: int,
    pp: int,
    dp: int,
    micro_batch: int,
    vpp: int = 1,
    zero_stage: int = 2,
    recompute: str = "selective",
) -> bool:
    """Whether the configuration fits in usable HBM."""
    breakdown = memory_breakdown(model, tp, pp, dp, micro_batch, vpp, zero_stage, recompute)
    return breakdown.total <= gpu.memory_bytes * USABLE_FRACTION


def checkpoint_bytes_per_gpu(model: ModelSpec, tp: int, pp: int, dp: int, zero_stage: int = 2) -> float:
    """State each GPU must persist at a checkpoint (params + optimizer shard)."""
    n_params = params_per_gpu(model, tp, pp)
    optimizer = n_params * OPTIMIZER_BYTES_PER_PARAM
    if zero_stage >= 1:
        optimizer /= dp
    return n_params * PARAM_BYTES + optimizer
