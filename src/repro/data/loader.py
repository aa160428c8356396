"""Event-driven data loaders: redundant vs tree-based (§3.4).

Mechanistic demonstration of the paper's redundant-dataloader
elimination: with one loader per GPU worker, eight processes pull the
same bytes through one disk; with the two-layer tree, a single dedicated
loader reads once into shared memory and workers copy out at memcpy
speed.  Both variants optionally prefetch the next iteration while the
trainer computes (asynchronous preprocessing).

The loaders run as real processes on the simulation kernel; the output
is the per-iteration *stall* a trainer observes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from ..sim import AllOf, Process, Resource, Simulator
from .shm import SharedMemoryBuffer


@dataclass(frozen=True)
class LoaderConfig:
    """One host's data-path parameters."""

    bytes_per_worker: float  # unique bytes each worker needs per iteration
    n_workers: int = 8
    disk_bandwidth: float = 3e9
    shm_bandwidth: float = 40e9
    preprocess_time: float = 0.05  # CPU work per iteration
    iteration_time: float = 2.0  # trainer compute per iteration
    prefetch: bool = False  # load iteration i+1 during iteration i

    def __post_init__(self) -> None:
        if self.bytes_per_worker <= 0 or self.n_workers < 1:
            raise ValueError("need positive bytes and at least one worker")
        if min(self.disk_bandwidth, self.shm_bandwidth) <= 0:
            raise ValueError("bandwidths must be positive")


@dataclass
class LoaderStats:
    """Per-iteration stalls observed by the trainer."""

    stalls: List[float] = field(default_factory=list)

    @property
    def mean_stall(self) -> float:
        return float(np.mean(self.stalls)) if self.stalls else 0.0


def _disk_read(sim: Simulator, disk: Resource, nbytes: float, bandwidth: float):
    """Serialize on the disk for the transfer duration."""
    yield disk.acquire()
    yield sim.timeout(nbytes / bandwidth)
    disk.release()


def simulate_redundant_loading(config: LoaderConfig, n_iterations: int) -> LoaderStats:
    """Every worker owns a loader; all of them hit the disk (baseline)."""
    return _run(config, n_iterations, tree=False)


def simulate_tree_loading(config: LoaderConfig, n_iterations: int) -> LoaderStats:
    """One dedicated loader + shared-memory fan-out (MegaScale)."""
    return _run(config, n_iterations, tree=True)


def _run(config: LoaderConfig, n_iterations: int, tree: bool) -> LoaderStats:
    if n_iterations < 1:
        raise ValueError("n_iterations must be >= 1")
    sim = Simulator()
    disk = Resource(sim, capacity=1, name="disk")
    shm = SharedMemoryBuffer(
        capacity_bytes=4 * config.bytes_per_worker * config.n_workers + 1,
        copy_bandwidth=config.shm_bandwidth,
    )
    stats = LoaderStats()

    def load_iteration(iteration: int):
        """Produce iteration data; completes when workers could consume it."""
        if tree:
            # Single read of the unique bytes, then stage into shm.
            yield _disk_read(sim, disk, config.bytes_per_worker, config.disk_bandwidth)
            yield sim.timeout(config.preprocess_time)
            shm.publish(iteration, config.bytes_per_worker * config.n_workers)
            # Workers copy out concurrently at memcpy speed.
            yield sim.timeout(shm.copy_out_time(iteration) / config.n_workers)
            shm.release(iteration)
        else:
            # Each worker reads its own copy and preprocesses independently.
            reads = [
                Process(
                    sim,
                    _worker_load(sim, disk, config),
                    name=f"loader-{iteration}-{w}",
                )
                for w in range(config.n_workers)
            ]
            yield AllOf(sim, reads)

    def _worker_load(sim_, disk_, cfg):
        yield _disk_read(sim_, disk_, cfg.bytes_per_worker, cfg.disk_bandwidth)
        yield sim_.timeout(cfg.preprocess_time)

    def trainer():
        ready_at = 0.0
        pending = None
        if config.prefetch:
            pending = Process(sim, load_iteration(0), name="load-0")
        for iteration in range(n_iterations):
            if config.prefetch:
                data_done = pending
                if iteration + 1 < n_iterations:
                    pending = Process(sim, load_iteration(iteration + 1), name=f"load-{iteration + 1}")
            else:
                data_done = Process(sim, load_iteration(iteration), name=f"load-{iteration}")
            before = sim.now
            yield data_done
            stats.stalls.append(sim.now - before)
            yield sim.timeout(config.iteration_time)
            ready_at = sim.now
        return ready_at

    Process(sim, trainer(), name="trainer")
    sim.run()
    return stats
