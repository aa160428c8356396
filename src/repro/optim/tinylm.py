"""A small-but-real transformer language model in pure numpy.

Used for the Figure 10 convergence microbenchmarks: the paper validates
that the parallel transformer block, sliding-window attention, and the
LAMB optimizer do not hurt convergence.  Those are *algorithmic*
properties, so we validate them with actual gradient-descent training at
laptop scale — full forward/backward through embeddings, (serial or
parallel) pre-LN transformer blocks, causal (optionally windowed)
multi-head attention, a GeLU MLP and a tied-free output head.

The backward pass is hand-derived and verified against finite
differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np


def gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)))


def gelu_grad(x: np.ndarray) -> np.ndarray:
    c = np.sqrt(2.0 / np.pi)
    t = np.tanh(c * (x + 0.044715 * x**3))
    dt = (1.0 - t**2) * c * (1.0 + 3 * 0.044715 * x**2)
    return 0.5 * (1.0 + t) + 0.5 * x * dt


def layer_norm(x: np.ndarray, g: np.ndarray, b: np.ndarray, eps: float = 1e-5):
    mu = x.mean(-1, keepdims=True)
    var = x.var(-1, keepdims=True)
    xhat = (x - mu) / np.sqrt(var + eps)
    return xhat * g + b, (xhat, var, g, eps)


def layer_norm_backward(dy: np.ndarray, cache) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    xhat, var, g, eps = cache
    n = xhat.shape[-1]
    dg = (dy * xhat).sum(axis=tuple(range(dy.ndim - 1)))
    db = dy.sum(axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * g
    inv = 1.0 / np.sqrt(var + eps)
    dx = inv * (
        dxhat
        - dxhat.mean(-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(-1, keepdims=True)
    )
    return dx, dg, db


def softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(-1, keepdims=True))
    return e / e.sum(-1, keepdims=True)


def causal_mask(seq_len: int, window: Optional[int]) -> np.ndarray:
    """True where attention is allowed: causal, optionally windowed."""
    i = np.arange(seq_len)[:, None]
    j = np.arange(seq_len)[None, :]
    allowed = j <= i
    if window is not None:
        allowed &= (i - j) < window
    return allowed


@dataclass
class LmConfig:
    """Architecture of the tiny LM."""

    vocab_size: int = 64
    d_model: int = 48
    n_heads: int = 4
    n_layers: int = 2
    seq_len: int = 32
    d_ff_mult: int = 4
    parallel_block: bool = False
    attention_window: Optional[int] = None
    dtype: type = np.float32

    def __post_init__(self) -> None:
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must divide by n_heads")
        if self.attention_window is not None and self.attention_window < 1:
            raise ValueError("attention_window must be positive")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    @property
    def d_ff(self) -> int:
        return self.d_model * self.d_ff_mult


class TinyTransformerLM:
    """Decoder-only LM with full numpy forward/backward."""

    def __init__(self, config: LmConfig, seed: int = 0) -> None:
        self.config = config
        rng = np.random.default_rng(seed)
        c = config
        dt = c.dtype

        def init(*shape, scale=None):
            scale = scale if scale is not None else 1.0 / np.sqrt(shape[0])
            return (rng.standard_normal(shape) * scale).astype(dt)

        self.params: Dict[str, np.ndarray] = {
            "tok_emb": init(c.vocab_size, c.d_model, scale=0.02),
            "pos_emb": init(c.seq_len, c.d_model, scale=0.02),
            "ln_f_g": np.ones(c.d_model, dtype=dt),
            "ln_f_b": np.zeros(c.d_model, dtype=dt),
            "head": init(c.d_model, c.vocab_size),
        }
        for layer in range(c.n_layers):
            p = f"l{layer}."
            self.params[p + "ln1_g"] = np.ones(c.d_model, dtype=dt)
            self.params[p + "ln1_b"] = np.zeros(c.d_model, dtype=dt)
            self.params[p + "wqkv"] = init(c.d_model, 3 * c.d_model)
            self.params[p + "wo"] = init(c.d_model, c.d_model)
            self.params[p + "w1"] = init(c.d_model, c.d_ff)
            self.params[p + "w2"] = init(c.d_ff, c.d_model)
            if not c.parallel_block:
                self.params[p + "ln2_g"] = np.ones(c.d_model, dtype=dt)
                self.params[p + "ln2_b"] = np.zeros(c.d_model, dtype=dt)
        self._mask = causal_mask(c.seq_len, c.attention_window)

    # -- attention sub-block ---------------------------------------------------

    def _attention(self, h: np.ndarray, layer: int):
        c = self.config
        p = f"l{layer}."
        B, S, D = h.shape
        qkv = h @ self.params[p + "wqkv"]
        q, k, v = np.split(qkv, 3, axis=-1)

        def heads(x):
            return x.reshape(B, S, c.n_heads, c.d_head).transpose(0, 2, 1, 3)

        q, k, v = heads(q), heads(k), heads(v)
        scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(c.d_head)
        scores = np.where(self._mask[:S, :S], scores, -1e9)
        probs = softmax(scores)
        ctx = probs @ v  # (B, H, S, dh)
        merged = ctx.transpose(0, 2, 1, 3).reshape(B, S, D)
        out = merged @ self.params[p + "wo"]
        cache = (h, q, k, v, probs, merged)
        return out, cache

    def _attention_backward(self, dout: np.ndarray, cache, layer: int, grads):
        c = self.config
        p = f"l{layer}."
        h, q, k, v, probs, merged = cache
        B, S, D = h.shape
        grads[p + "wo"] += merged.reshape(-1, D).T @ dout.reshape(-1, D)
        dmerged = dout @ self.params[p + "wo"].T
        dctx = dmerged.reshape(B, S, c.n_heads, c.d_head).transpose(0, 2, 1, 3)
        dprobs = dctx @ v.transpose(0, 1, 3, 2)
        dv = probs.transpose(0, 1, 3, 2) @ dctx
        dscores = probs * (dprobs - (dprobs * probs).sum(-1, keepdims=True))
        dscores = np.where(self._mask[:S, :S], dscores, 0.0) / np.sqrt(c.d_head)
        dq = dscores @ k
        dk = dscores.transpose(0, 1, 3, 2) @ q

        def unheads(x):
            return x.transpose(0, 2, 1, 3).reshape(B, S, D)

        dqkv = np.concatenate([unheads(dq), unheads(dk), unheads(dv)], axis=-1)
        grads[p + "wqkv"] += h.reshape(-1, D).T @ dqkv.reshape(-1, 3 * D)
        return dqkv @ self.params[p + "wqkv"].T

    # -- MLP sub-block -----------------------------------------------------------

    def _mlp(self, h: np.ndarray, layer: int):
        p = f"l{layer}."
        pre = h @ self.params[p + "w1"]
        act = gelu(pre)
        out = act @ self.params[p + "w2"]
        return out, (h, pre, act)

    def _mlp_backward(self, dout: np.ndarray, cache, layer: int, grads):
        p = f"l{layer}."
        h, pre, act = cache
        D, F = self.params[p + "w1"].shape
        grads[p + "w2"] += act.reshape(-1, F).T @ dout.reshape(-1, D)
        dact = dout @ self.params[p + "w2"].T
        dpre = dact * gelu_grad(pre)
        grads[p + "w1"] += h.reshape(-1, D).T @ dpre.reshape(-1, F)
        return dpre @ self.params[p + "w1"].T

    # -- full model -----------------------------------------------------------------

    def forward(self, tokens: np.ndarray):
        """Return logits (B, S, V) and the caches for backward."""
        c = self.config
        if tokens.ndim != 2 or tokens.shape[1] > c.seq_len:
            raise ValueError(f"tokens must be (B, S<= {c.seq_len})")
        B, S = tokens.shape
        x = self.params["tok_emb"][tokens] + self.params["pos_emb"][:S]
        caches: List = []
        for layer in range(c.n_layers):
            p = f"l{layer}."
            if c.parallel_block:
                h, ln_cache = layer_norm(
                    x, self.params[p + "ln1_g"], self.params[p + "ln1_b"]
                )
                attn, a_cache = self._attention(h, layer)
                mlp, m_cache = self._mlp(h, layer)
                caches.append(("parallel", ln_cache, a_cache, m_cache))
                x = x + attn + mlp
            else:
                h1, ln1_cache = layer_norm(
                    x, self.params[p + "ln1_g"], self.params[p + "ln1_b"]
                )
                attn, a_cache = self._attention(h1, layer)
                x = x + attn
                h2, ln2_cache = layer_norm(
                    x, self.params[p + "ln2_g"], self.params[p + "ln2_b"]
                )
                mlp, m_cache = self._mlp(h2, layer)
                caches.append(("serial", ln1_cache, a_cache, ln2_cache, m_cache))
                x = x + mlp
        final, lnf_cache = layer_norm(x, self.params["ln_f_g"], self.params["ln_f_b"])
        logits = final @ self.params["head"]
        return logits, (tokens, caches, final, lnf_cache)

    def loss_and_grads(self, tokens: np.ndarray, targets: np.ndarray):
        """Mean cross-entropy over all positions, plus parameter grads."""
        c = self.config
        logits, (tokens, caches, final, lnf_cache) = self.forward(tokens)
        B, S, V = logits.shape
        probs = softmax(logits.astype(np.float64)).astype(logits.dtype)
        idx = (np.arange(B)[:, None], np.arange(S)[None, :], targets)
        eps = np.finfo(np.float64).tiny
        loss = float(-np.log(np.maximum(probs[idx].astype(np.float64), eps)).mean())

        grads = {name: np.zeros_like(value) for name, value in self.params.items()}
        dlogits = probs.copy()
        dlogits[idx] -= 1.0
        dlogits /= B * S
        grads["head"] += final.reshape(-1, c.d_model).T @ dlogits.reshape(-1, V)
        dfinal = dlogits @ self.params["head"].T
        dx, dg, db = layer_norm_backward(dfinal, lnf_cache)
        grads["ln_f_g"] += dg
        grads["ln_f_b"] += db

        for layer in reversed(range(c.n_layers)):
            p = f"l{layer}."
            cache = caches[layer]
            if cache[0] == "parallel":
                _, ln_cache, a_cache, m_cache = cache
                dh_m = self._mlp_backward(dx, m_cache, layer, grads)
                dh_a = self._attention_backward(dx, a_cache, layer, grads)
                dh, dg, db = layer_norm_backward(dh_m + dh_a, ln_cache)
                grads[p + "ln1_g"] += dg
                grads[p + "ln1_b"] += db
                dx = dx + dh
            else:
                _, ln1_cache, a_cache, ln2_cache, m_cache = cache
                dh2 = self._mlp_backward(dx, m_cache, layer, grads)
                dmid, dg2, db2 = layer_norm_backward(dh2, ln2_cache)
                grads[p + "ln2_g"] += dg2
                grads[p + "ln2_b"] += db2
                dx = dx + dmid
                dh1 = self._attention_backward(dx, a_cache, layer, grads)
                dfirst, dg1, db1 = layer_norm_backward(dh1, ln1_cache)
                grads[p + "ln1_g"] += dg1
                grads[p + "ln1_b"] += db1
                dx = dx + dfirst

        grads["pos_emb"][: tokens.shape[1]] += dx.sum(0)
        np.add.at(grads["tok_emb"], tokens, dx)
        return loss, grads
