"""Tests for executable ZeRO-2 data-parallel training."""

import numpy as np
import pytest

from repro.optim import LmConfig
from repro.optim.distributed import (
    Zero2Trainer,
    all_gather_params,
    partition_names,
    reduce_scatter_grads,
)
from repro.optim.tinylm import TinyTransformerLM
from tests.oracles.zero2 import (
    max_param_divergence,
    optimizer_state_elements,
    replicas_consistent,
    train_single,
)


CFG = LmConfig(vocab_size=17, d_model=16, n_heads=2, n_layers=2, seq_len=8, dtype=np.float64)


def make_batches(n, global_batch, seed=0):
    rng = np.random.default_rng(seed)
    return [
        (
            rng.integers(0, CFG.vocab_size, (global_batch, CFG.seq_len)),
            rng.integers(0, CFG.vocab_size, (global_batch, CFG.seq_len)),
        )
        for _ in range(n)
    ]


def test_partition_covers_all_params_disjointly():
    model = TinyTransformerLM(CFG)
    shards = partition_names(model.params, dp=4)
    flat = [n for shard in shards for n in shard]
    assert sorted(flat) == sorted(model.params)
    assert len(flat) == len(set(flat))
    # Balanced within a factor of ~3 (greedy on tensor granularity).
    sizes = [sum(model.params[n].size for n in shard) for shard in shards]
    assert max(sizes) < 3 * max(1, min(sizes))


def test_reduce_scatter_produces_global_mean():
    grads_a = {"w": np.array([1.0, 2.0]), "v": np.array([0.0])}
    grads_b = {"w": np.array([3.0, 4.0]), "v": np.array([2.0])}
    shards = [["w"], ["v"]]
    out = reduce_scatter_grads([grads_a, grads_b], shards)
    assert np.allclose(out[0]["w"], [2.0, 3.0])
    assert np.allclose(out[1]["v"], [1.0])
    assert "v" not in out[0] and "w" not in out[1]
    with pytest.raises(ValueError):
        reduce_scatter_grads([grads_a], shards)


def test_all_gather_synchronizes_replicas():
    workers = [TinyTransformerLM(CFG, seed=s) for s in (0, 1)]  # diverged
    shards = partition_names(workers[0].params, 2)
    all_gather_params(workers, shards)
    assert max_param_divergence(workers[0], workers[1]) == 0.0


@pytest.mark.parametrize("dp", [2, 4])
def test_zero2_matches_single_process_training(dp):
    """The headline invariant: sharded training == monolithic training."""
    batches = make_batches(5, global_batch=8)
    trainer = Zero2Trainer(CFG, dp=dp, lr=3e-3, seed=3)
    for tokens, targets in batches:
        trainer.step(tokens, targets)
        assert replicas_consistent(trainer)
    reference = train_single(CFG, batches, lr=3e-3, seed=3)
    divergence = max_param_divergence(trainer.workers[0], reference)
    assert divergence < 1e-9, f"ZeRO-2 diverged from reference by {divergence}"


def test_zero2_optimizer_state_actually_sharded():
    trainer = Zero2Trainer(CFG, dp=4, seed=0)
    total_params = sum(v.size for v in trainer.workers[0].params.values())
    per_worker = optimizer_state_elements(trainer)
    assert sum(per_worker) == total_params  # partition, no duplication
    assert max(per_worker) < total_params  # nobody holds everything


def test_zero2_loss_decreases():
    trainer = Zero2Trainer(CFG, dp=2, lr=5e-3, seed=1)
    batches = make_batches(30, global_batch=8, seed=7)
    losses = [trainer.step(t, g) for t, g in batches]
    assert np.mean(losses[-5:]) < np.mean(losses[:5])


def test_zero2_validation():
    with pytest.raises(ValueError):
        Zero2Trainer(CFG, dp=0)
    trainer = Zero2Trainer(CFG, dp=2)
    tokens = np.zeros((3, CFG.seq_len), dtype=np.int64)  # 3 % 2 != 0
    with pytest.raises(ValueError):
        trainer.step(tokens, tokens)
    with pytest.raises(ValueError):
        partition_names({}, dp=0)
