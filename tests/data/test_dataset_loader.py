"""Tests for shared memory and the loaders."""

import pytest

from repro.data import (
    LoaderConfig,
    SharedMemoryBuffer,
    simulate_redundant_loading,
    simulate_tree_loading,
)


def test_shm_publish_copy_release():
    shm = SharedMemoryBuffer(capacity_bytes=1000.0, copy_bandwidth=100.0)
    shm.publish(0, 500.0)
    assert shm.used_bytes == 500.0
    assert shm.copy_out_time(0) == pytest.approx(5.0)
    shm.release(0)
    assert shm.used_bytes == 0.0


def test_shm_backpressure_and_errors():
    shm = SharedMemoryBuffer(capacity_bytes=100.0, copy_bandwidth=10.0)
    shm.publish(0, 80.0)
    with pytest.raises(MemoryError):
        shm.publish(1, 30.0)
    with pytest.raises(ValueError):
        shm.publish(0, 10.0)  # duplicate
    with pytest.raises(KeyError):
        shm.copy_out_time(5)
    with pytest.raises(KeyError):
        shm.release(5)
    with pytest.raises(ValueError):
        SharedMemoryBuffer(capacity_bytes=0, copy_bandwidth=1)


CONFIG = LoaderConfig(
    bytes_per_worker=300e6,
    n_workers=8,
    disk_bandwidth=3e9,
    preprocess_time=0.05,
    iteration_time=2.0,
)


def test_redundant_loading_stalls_every_iteration():
    stats = simulate_redundant_loading(CONFIG, n_iterations=4)
    # 8 workers x 0.1 s of disk each + preprocess: ~0.85 s stall.
    assert stats.mean_stall > 0.5
    assert len(stats.stalls) == 4


def test_tree_loading_cuts_the_stall():
    redundant = simulate_redundant_loading(CONFIG, n_iterations=4)
    tree = simulate_tree_loading(CONFIG, n_iterations=4)
    assert tree.mean_stall < redundant.mean_stall / 3


def test_prefetch_hides_loading_entirely():
    from dataclasses import replace

    config = replace(CONFIG, prefetch=True)
    tree = simulate_tree_loading(config, n_iterations=5)
    # After the cold start, data is always ready when the trainer is.
    assert max(tree.stalls[1:]) == pytest.approx(0.0, abs=1e-9)
    assert tree.stalls[0] > 0.0  # first iteration still pays the cold read


def test_prefetch_with_redundant_loaders_still_limited_by_disk():
    from dataclasses import replace

    # If the disk cannot load an iteration within one training step,
    # prefetching cannot fully hide it.
    config = replace(
        CONFIG, prefetch=True, iteration_time=0.2, bytes_per_worker=600e6
    )
    stats = simulate_redundant_loading(config, n_iterations=5)
    assert stats.mean_stall > 0.5


def test_loader_validation():
    with pytest.raises(ValueError):
        LoaderConfig(bytes_per_worker=0)
    with pytest.raises(ValueError):
        simulate_tree_loading(CONFIG, n_iterations=0)
