"""Optimizers and convergence microbenchmarks (real numpy training)."""

from .adam import Adam
from .convergence import (
    Batcher,
    curves_match,
    make_markov_corpus,
    train_lm,
)
from .distributed import Zero2Trainer
from .lamb import Lamb
from .tinylm import LmConfig, TinyTransformerLM, causal_mask, gelu, layer_norm

__all__ = [
    "Adam",
    "Batcher",
    "Lamb",
    "LmConfig",
    "TinyTransformerLM",
    "Zero2Trainer",
    "causal_mask",
    "curves_match",
    "gelu",
    "layer_norm",
    "make_markov_corpus",
    "train_lm",
]
