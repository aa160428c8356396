"""The single-process reference and the checks behind the ZeRO-2 trainer.

:class:`repro.optim.distributed.Zero2Trainer` shards optimizer state
over ``dp`` logical workers.  :func:`train_single` is plain ADAM on the
full global batch in one process; ``tests/optim/test_distributed.py``
holds the sharded trainer to it with :func:`max_param_divergence`, and
checks the replicas and the per-worker state with
:func:`replicas_consistent` and :func:`optimizer_state_elements`.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.optim.adam import Adam
from repro.optim.distributed import Zero2Trainer
from repro.optim.tinylm import LmConfig, TinyTransformerLM


def train_single(
    config: LmConfig,
    batches: List[Tuple[np.ndarray, np.ndarray]],
    lr: float = 3e-3,
    seed: int = 0,
) -> TinyTransformerLM:
    """Reference: one process, full global batch, plain ADAM."""
    model = TinyTransformerLM(config, seed=seed)
    opt = Adam(model.params, lr=lr)
    for tokens, targets in batches:
        _, grads = model.loss_and_grads(tokens, targets)
        opt.step(model.params, grads)
    return model


def max_param_divergence(a: TinyTransformerLM, b: TinyTransformerLM) -> float:
    """Largest absolute weight difference between two models."""
    return max(
        float(np.max(np.abs(a.params[name] - b.params[name]))) for name in a.params
    )


def optimizer_state_elements(trainer: Zero2Trainer) -> List[int]:
    """Optimizer-state sizes per worker (the ZeRO-2 saving)."""
    return [sum(v.size for v in opt.m.values()) for opt in trainer.optimizers]


def replicas_consistent(trainer: Zero2Trainer, atol: float = 0.0) -> bool:
    """All replicas hold identical parameters after a step."""
    reference = trainer.workers[0].params
    for worker in trainer.workers[1:]:
        for name, value in reference.items():
            if not np.allclose(worker.params[name], value, atol=atol, rtol=0):
                return False
    return True
