"""FLOPs accounting for transformer training.

Two distinct quantities matter:

* **Model FLOPs** — the work the *reference* model performs per token,
  with full self-attention.  This is the numerator of MFU (the paper
  follows Megatron-LM's definition), and it does not change when
  sliding-window attention executes fewer operations.
* **Executed FLOPs** — what the configured model actually computes
  (window-limited attention, per-layer decomposition for the operator
  cost model).

Forward-pass conventions: a GEMM of (m×k)·(k×n) is ``2·m·k·n`` FLOPs; the
backward pass of a GEMM costs twice the forward (grad wrt input + grad wrt
weights).
"""

from __future__ import annotations

from dataclasses import dataclass

from .transformer import ModelSpec

BACKWARD_MULTIPLIER = 2.0  # backward GEMMs = 2x forward


@dataclass(frozen=True)
class LayerFlops:
    """Forward-pass FLOPs of one transformer layer for a full batch slice."""

    qkv_proj: float
    attention_core: float  # scores + weighted values
    out_proj: float
    ffn_up: float
    ffn_down: float

    @property
    def attention_path(self) -> float:
        return self.qkv_proj + self.attention_core + self.out_proj

    @property
    def ffn_path(self) -> float:
        return self.ffn_up + self.ffn_down

    @property
    def total(self) -> float:
        return self.attention_path + self.ffn_path


def layer_forward_flops(
    spec: ModelSpec, batch: int, seq_len: int = 0, window: int = 0
) -> LayerFlops:
    """Forward FLOPs of one layer over ``batch`` sequences.

    ``window`` limits the attention span (0 means use the spec's window).
    """
    s = seq_len or spec.seq_len
    w = window or min(spec.effective_window, s)
    h = spec.hidden_size
    b = batch
    # Causal attention averages ~w/2 attended keys per query when w == s;
    # for windowed attention each query sees ~w keys.  We use the standard
    # dense accounting (s*w) matching Megatron's model-FLOPs convention.
    return LayerFlops(
        qkv_proj=2.0 * b * s * h * 3 * h,
        attention_core=2.0 * 2.0 * b * s * w * h,  # QK^T and PV
        out_proj=2.0 * b * s * h * h,
        ffn_up=2.0 * b * s * h * spec.ffn_hidden,
        ffn_down=2.0 * b * s * spec.ffn_hidden * h,
    )


def logits_forward_flops(spec: ModelSpec, batch: int, seq_len: int = 0) -> float:
    """Forward FLOPs of the output (vocabulary) projection."""
    s = seq_len or spec.seq_len
    return 2.0 * batch * s * spec.hidden_size * spec.vocab_size


def model_flops_per_token(spec: ModelSpec, include_logits: bool = True) -> float:
    """Reference (full-attention) fwd+bwd FLOPs per trained token.

    This is the MFU numerator: it always uses the full sequence length as
    the attention span, regardless of the configured sliding window.
    """
    per_layer = layer_forward_flops(spec, batch=1, window=spec.seq_len)
    forward = spec.n_layers * per_layer.total
    if include_logits:
        forward += logits_forward_flops(spec, batch=1)
    total = forward * (1.0 + BACKWARD_MULTIPLIER)
    return total / spec.seq_len


def iteration_model_flops(spec: ModelSpec, global_batch: int) -> float:
    """Reference model FLOPs of one optimizer step at ``global_batch``."""
    return model_flops_per_token(spec) * global_batch * spec.seq_len


def tokens_per_second(spec: ModelSpec, global_batch: int, iteration_time: float) -> float:
    return global_batch * spec.seq_len / iteration_time


def training_days(
    spec: ModelSpec, global_batch: int, iteration_time: float, total_tokens: float
) -> float:
    """Wall-clock days to train ``total_tokens`` at a steady iteration time."""
    rate = tokens_per_second(spec, global_batch, iteration_time)
    return total_tokens / rate / 86400.0
