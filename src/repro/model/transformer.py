"""Transformer architecture specifications.

Mirrors Table 1 of the paper (175B and 530B training configs) plus the 13B
model used for convergence microbenchmarks.  The spec is pure metadata;
FLOPs/memory accounting lives in :mod:`repro.model.flops` and
:mod:`repro.model.memory`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional


@dataclass(frozen=True)
class ModelSpec:
    """A GPT-style decoder-only transformer configuration."""

    name: str
    n_layers: int
    hidden_size: int
    n_heads: int
    vocab_size: int = 64_000
    seq_len: int = 2048
    ffn_multiplier: int = 4
    # Sliding-window attention (§3.1): None means full attention.
    attention_window: Optional[int] = None
    # Parallel transformer block (§3.1): attention and MLP share one
    # LayerNorm and are summed, halving TP/SP communication per block.
    parallel_block: bool = False

    def __post_init__(self) -> None:
        if self.n_layers < 1 or self.hidden_size < 1 or self.n_heads < 1:
            raise ValueError("layers, hidden size and heads must be positive")
        if self.hidden_size % self.n_heads != 0:
            raise ValueError(
                f"hidden size {self.hidden_size} not divisible by {self.n_heads} heads"
            )
        if self.attention_window is not None and self.attention_window < 1:
            raise ValueError("attention_window must be positive or None")

    @property
    def ffn_hidden(self) -> int:
        return self.hidden_size * self.ffn_multiplier

    @property
    def effective_window(self) -> int:
        """Tokens each query attends to (capped at the sequence length)."""
        if self.attention_window is None:
            return self.seq_len
        return min(self.attention_window, self.seq_len)

    @property
    def n_params(self) -> int:
        """Total parameter count (weights + embeddings, no biases folded)."""
        h = self.hidden_size
        per_layer = (
            4 * h * h  # QKV + output projections
            + 2 * h * self.ffn_hidden  # FFN up + down
            + 4 * h  # two LayerNorms (gain + bias)
        )
        embeddings = self.vocab_size * h + self.seq_len * h
        return self.n_layers * per_layer + embeddings + 2 * h  # final LN

    def with_options(
        self,
        attention_window: Optional[int] = None,
        parallel_block: Optional[bool] = None,
        seq_len: Optional[int] = None,
    ) -> "ModelSpec":
        """A copy with algorithmic options toggled (PTB / SWA / seq len)."""
        return replace(
            self,
            attention_window=(
                attention_window if attention_window is not None else self.attention_window
            ),
            parallel_block=(
                parallel_block if parallel_block is not None else self.parallel_block
            ),
            seq_len=seq_len if seq_len is not None else self.seq_len,
        )


# Table 1 of the paper, plus the 13B convergence-microbenchmark model
# and two smaller community-standard sizes for tuner studies.
GPT_175B = ModelSpec(name="gpt-175b", n_layers=96, hidden_size=12288, n_heads=128)
GPT_530B = ModelSpec(name="gpt-530b", n_layers=105, hidden_size=20480, n_heads=160)
GPT_13B = ModelSpec(name="gpt-13b", n_layers=40, hidden_size=5120, n_heads=40)
GPT_30B = ModelSpec(name="gpt-30b", n_layers=48, hidden_size=7168, n_heads=56)
GPT_7B = ModelSpec(name="gpt-7b", n_layers=32, hidden_size=4096, n_heads=32)

MODEL_CATALOG: Dict[str, ModelSpec] = {
    spec.name: spec for spec in (GPT_175B, GPT_530B, GPT_13B, GPT_30B, GPT_7B)
}
