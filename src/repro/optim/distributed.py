"""Data-parallel ZeRO-2 training of the numpy LM — executable semantics.

The simulator prices ZeRO-2's reduce-scatter/all-gather pattern; this
module *executes* it: ``dp`` logical workers each hold a model replica,
compute gradients on their shard of the global batch, reduce-scatter the
gradients so each worker owns the averaged gradient for its parameter
shard, update only the optimizer state for that shard (the ZeRO-2
memory saving), then all-gather the updated parameters.

The key validated property: this is *numerically identical* to
single-process training on the full batch — which is exactly why the
paper can shard state freely without touching convergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from .adam import Adam
from .tinylm import LmConfig, TinyTransformerLM


def partition_names(params: Dict[str, np.ndarray], dp: int) -> List[List[str]]:
    """Greedy size-balanced assignment of parameter tensors to dp shards."""
    if dp < 1:
        raise ValueError("dp must be >= 1")
    shards: List[List[str]] = [[] for _ in range(dp)]
    loads = [0] * dp
    for name in sorted(params, key=lambda n: -params[n].size):
        target = loads.index(min(loads))
        shards[target].append(name)
        loads[target] += params[name].size
    return shards


def reduce_scatter_grads(
    worker_grads: List[Dict[str, np.ndarray]], shards: List[List[str]]
) -> List[Dict[str, np.ndarray]]:
    """Average gradients; worker i receives only its shard (ZeRO-2)."""
    dp = len(worker_grads)
    if dp != len(shards):
        raise ValueError("one shard list per worker required")
    out: List[Dict[str, np.ndarray]] = []
    for rank, names in enumerate(shards):
        shard = {}
        for name in names:
            stacked = sum(g[name] for g in worker_grads) / dp
            shard[name] = stacked
        out.append(shard)
    return out


def all_gather_params(
    workers: List[TinyTransformerLM], shards: List[List[str]]
) -> None:
    """Broadcast each owner's updated shard to every replica."""
    for owner, names in enumerate(shards):
        source = workers[owner].params
        for name in names:
            for worker in workers:
                if worker is workers[owner]:
                    continue
                np.copyto(worker.params[name], source[name])


@dataclass
class Zero2Trainer:
    """``dp`` workers with sharded optimizer state (ZeRO stage 2)."""

    config: LmConfig
    dp: int
    lr: float = 3e-3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dp < 1:
            raise ValueError("dp must be >= 1")
        # Every replica starts from identical weights.
        self.workers = [TinyTransformerLM(self.config, seed=self.seed) for _ in range(self.dp)]
        self.shards = partition_names(self.workers[0].params, self.dp)
        # ZeRO-2: each worker keeps optimizer state only for its shard.
        self.optimizers = [
            Adam({n: self.workers[r].params[n] for n in self.shards[r]}, lr=self.lr)
            for r in range(self.dp)
        ]

    def step(self, tokens: np.ndarray, targets: np.ndarray) -> float:
        """One global step: shard the batch, sync grads, sharded update.

        ``tokens`` is the *global* batch; it must split evenly over dp.
        Returns the global mean loss.
        """
        if tokens.shape[0] % self.dp != 0:
            raise ValueError(f"global batch {tokens.shape[0]} not divisible by dp={self.dp}")
        per = tokens.shape[0] // self.dp
        losses = []
        worker_grads = []
        for rank, worker in enumerate(self.workers):
            sl = slice(rank * per, (rank + 1) * per)
            loss, grads = worker.loss_and_grads(tokens[sl], targets[sl])
            losses.append(loss)
            worker_grads.append(grads)
        shard_grads = reduce_scatter_grads(worker_grads, self.shards)
        for rank, worker in enumerate(self.workers):
            shard_params = {n: worker.params[n] for n in self.shards[rank]}
            self.optimizers[rank].step(shard_params, shard_grads[rank])
        all_gather_params(self.workers, self.shards)
        return float(np.mean(losses))
