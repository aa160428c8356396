"""Convergence microbenchmark harness (Figure 10).

Trains the numpy :class:`~repro.optim.tinylm.TinyTransformerLM` on a
synthetic-but-structured corpus and compares loss curves across
algorithmic variants:

* Figure 10a — baseline (serial block, full attention) vs MegaScale
  (parallel block + sliding-window attention), both on ADAM.
* Figure 10b — ADAM at batch B vs LAMB at batch 4B.

The corpus is a second-order Markov chain over a small alphabet: it has
real learnable structure (so loss curves are meaningful) yet needs no
external data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .adam import Adam
from .lamb import Lamb
from .tinylm import LmConfig, TinyTransformerLM


def make_markov_corpus(
    vocab_size: int = 64, length: int = 200_000, seed: int = 0, temperature: float = 0.4
) -> np.ndarray:
    """A second-order Markov token stream with sparse, peaked transitions."""
    if vocab_size < 4 or length < 10:
        raise ValueError("need vocab >= 4 and length >= 10")
    rng = np.random.default_rng(seed)
    # Sparse transition table: each (prev2, prev1) context prefers ~4 tokens.
    logits = rng.standard_normal((vocab_size, vocab_size, vocab_size)) / temperature
    keep = rng.integers(0, vocab_size, size=(vocab_size, vocab_size, 4))
    mask = np.full((vocab_size, vocab_size, vocab_size), -1e9)
    for a in range(vocab_size):
        for b in range(vocab_size):
            mask[a, b, keep[a, b]] = 0.0
    probs = np.exp(logits + mask)
    probs /= probs.sum(-1, keepdims=True)
    cdf = probs.cumsum(-1)
    out = np.empty(length, dtype=np.int64)
    out[0], out[1] = rng.integers(0, vocab_size, 2)
    uniforms = rng.random(length)
    for i in range(2, length):
        out[i] = np.searchsorted(cdf[out[i - 2], out[i - 1]], uniforms[i])
    return out


@dataclass
class Batcher:
    """Samples (tokens, next-token targets) windows from a corpus."""

    corpus: np.ndarray
    seq_len: int
    batch_size: int
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))

    def __post_init__(self) -> None:
        if len(self.corpus) < self.seq_len + 2:
            raise ValueError("corpus shorter than one training window")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")

    def sample(self) -> Tuple[np.ndarray, np.ndarray]:
        starts = self.rng.integers(0, len(self.corpus) - self.seq_len - 1, self.batch_size)
        tokens = np.stack([self.corpus[s : s + self.seq_len] for s in starts])
        targets = np.stack([self.corpus[s + 1 : s + self.seq_len + 1] for s in starts])
        return tokens, targets


@dataclass(frozen=True)
class TrainingCurve:
    """Loss trajectory of one configuration."""

    label: str
    steps: Tuple[int, ...]
    losses: Tuple[float, ...]
    tokens_seen: Tuple[int, ...]

    @property
    def final_loss(self) -> float:
        return self.losses[-1]

    def loss_at_tokens(self, tokens: float) -> float:
        """Loss at (or after) a token budget — for iso-token comparison."""
        for seen, loss in zip(self.tokens_seen, self.losses):
            if seen >= tokens:
                return loss
        return self.losses[-1]


def train_lm(
    config: LmConfig,
    optimizer: str = "adam",
    lr: float = 3e-3,
    batch_size: int = 16,
    n_steps: int = 200,
    eval_every: int = 10,
    corpus: Optional[np.ndarray] = None,
    seed: int = 0,
    label: str = "",
) -> TrainingCurve:
    """Train a tiny LM; returns its (smoothed) loss curve."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if corpus is None:
        corpus = make_markov_corpus(config.vocab_size, seed=seed)
    model = TinyTransformerLM(config, seed=seed)
    if optimizer == "adam":
        opt = Adam(model.params, lr=lr)
    elif optimizer == "lamb":
        opt = Lamb(model.params, lr=lr)
    else:
        raise ValueError(f"unknown optimizer {optimizer!r}")
    batcher = Batcher(corpus, config.seq_len, batch_size, np.random.default_rng(seed + 1))

    steps: List[int] = []
    losses: List[float] = []
    tokens_seen: List[int] = []
    window: List[float] = []
    for step in range(1, n_steps + 1):
        tokens, targets = batcher.sample()
        loss, grads = model.loss_and_grads(tokens, targets)
        opt.step(model.params, grads)
        window.append(loss)
        if step % eval_every == 0 or step == n_steps:
            steps.append(step)
            losses.append(float(np.mean(window)))
            tokens_seen.append(step * batch_size * config.seq_len)
            window.clear()
    return TrainingCurve(
        label=label or f"{optimizer}-bs{batch_size}",
        steps=tuple(steps),
        losses=tuple(losses),
        tokens_seen=tuple(tokens_seen),
    )


def curves_match(
    a: TrainingCurve, b: TrainingCurve, tolerance: float = 0.15, tail: int = 3
) -> bool:
    """Whether two runs converge to comparable loss (paper's Fig. 10 claim)."""
    if tail < 1:
        raise ValueError("tail must be >= 1")
    la = np.mean(a.losses[-tail:])
    lb = np.mean(b.losses[-tail:])
    return abs(la - lb) <= tolerance
