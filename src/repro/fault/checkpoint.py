"""Fast checkpointing and recovery (§4.4), with integrity + retry.

**Two-stage save**: each GPU first dumps its state to pinned host memory
over PCIe (this is the only part that blocks training — "several
seconds"), then a background process drains host memory to the
distributed file system asynchronously.

**Optimized recovery**: GPU workers in the same data-parallel group share
the parameter partition, so a single reader per group pulls it from HDFS
and broadcasts to its peers, cutting the read load by the DP degree.

**Integrity + retry** (degraded mode): under recovery contention HDFS
reads and writes can fail transiently or return corrupt shards.  Every
read is checksum-verified; failures retry with exponential backoff until
a bounded timeout, after which the loader falls back to the N−1
checkpoint — correct but one full checkpoint interval more expensive,
which the caller must charge as extra lost iterations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..collectives.primitives import tree_broadcast
from ..hardware.node import NodeSpec
from ..model.memory import (
    OPTIMIZER_BYTES_PER_PARAM,
    PARAM_BYTES,
    checkpoint_bytes_per_gpu,
    params_per_gpu,
)
from ..model.transformer import ModelSpec
from ..parallel.plan import ParallelPlan


@dataclass(frozen=True)
class HdfsModel:
    """Distributed-filesystem throughput model."""

    aggregate_read_bandwidth: float = 60e9  # bytes/s across the cluster
    aggregate_write_bandwidth: float = 40e9
    per_client_bandwidth: float = 1.5e9  # one worker's stream

    def __post_init__(self) -> None:
        if min(
            self.aggregate_read_bandwidth,
            self.aggregate_write_bandwidth,
            self.per_client_bandwidth,
        ) <= 0:
            raise ValueError("HDFS bandwidths must be positive")

    def read_time(self, total_bytes: float, n_clients: int, bandwidth_factor: float = 1.0) -> float:
        """Time for ``n_clients`` to collectively read ``total_bytes``.

        ``bandwidth_factor`` scales effective throughput during degraded
        operation (lost NICs, congested recovery traffic).
        """
        if total_bytes < 0 or n_clients < 1 or not 0 < bandwidth_factor <= 1:
            raise ValueError("invalid read request")
        rate = min(self.aggregate_read_bandwidth, n_clients * self.per_client_bandwidth)
        return total_bytes / (rate * bandwidth_factor)

    def write_time(self, total_bytes: float, n_clients: int, bandwidth_factor: float = 1.0) -> float:
        if total_bytes < 0 or n_clients < 1 or not 0 < bandwidth_factor <= 1:
            raise ValueError("invalid write request")
        rate = min(self.aggregate_write_bandwidth, n_clients * self.per_client_bandwidth)
        return total_bytes / (rate * bandwidth_factor)


@dataclass(frozen=True)
class CheckpointCost:
    """Timing of one checkpoint under the two-stage scheme."""

    stage1_stall: float  # GPU -> host memory; blocks training
    stage2_async: float  # host memory -> HDFS; off the critical path

    @property
    def training_interruption(self) -> float:
        return self.stage1_stall


@dataclass
class CheckpointPlanner:
    """Prices saves and restores for one (model, plan) deployment."""

    model: ModelSpec
    plan: ParallelPlan
    node: NodeSpec = None  # type: ignore[assignment]
    hdfs: HdfsModel = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.node is None:
            self.node = NodeSpec()
        if self.hdfs is None:
            self.hdfs = HdfsModel()

    @property
    def bytes_per_gpu(self) -> float:
        return checkpoint_bytes_per_gpu(
            self.model, self.plan.tp, self.plan.pp, self.plan.dp, self.plan.zero_stage
        )

    @property
    def unique_bytes(self) -> float:
        """Checkpoint content with DP-duplicated parameters written once."""
        per_gpu_params = params_per_gpu(self.model, self.plan.tp, self.plan.pp)
        params = per_gpu_params * PARAM_BYTES * self.plan.tp * self.plan.pp
        optimizer = self.model.n_params * OPTIMIZER_BYTES_PER_PARAM
        return params + optimizer

    def save_cost(self, two_stage: bool = True) -> CheckpointCost:
        """Blocking stall + async drain of one checkpoint."""
        stage1 = self.bytes_per_gpu / self.node.gpu_spec.pcie_bandwidth
        writers = self.plan.world_size
        stage2 = self.hdfs.write_time(self.unique_bytes, writers)
        if two_stage:
            return CheckpointCost(stage1_stall=stage1, stage2_async=stage2)
        # Naive: training blocks until HDFS has everything.
        return CheckpointCost(stage1_stall=stage1 + stage2, stage2_async=0.0)

    def min_checkpoint_interval(self) -> float:
        """Shortest safe interval: the async drain must finish first."""
        return self.save_cost().stage2_async

    def save_with_retry(
        self,
        rng: np.random.Generator,
        integrity: "ShardIntegrityModel",
        policy: Optional["RetryPolicy"] = None,
        two_stage: bool = True,
        bandwidth_factor: float = 1.0,
    ) -> "CheckpointSaveOutcome":
        """Two-stage save whose HDFS drain retries transient failures.

        Stage 1 (GPU → host) never fails in this model; only the HDFS
        upload is exposed to the network.  A drain that exhausts its
        retries reports ``committed=False`` — the previous checkpoint
        stays the newest durable one.
        """
        policy = policy or RetryPolicy()
        cost = self.save_cost(two_stage)
        drain = (cost.stage2_async if two_stage else 0.0) / bandwidth_factor
        blocking = cost.stage1_stall if two_stage else cost.stage1_stall / bandwidth_factor
        total_drain = 0.0
        backoff = policy.base_backoff
        attempts = 0
        committed = False
        for _ in range(policy.max_attempts):
            attempts += 1
            if integrity.io_fails(rng):
                total_drain += integrity.partial_read_fraction * drain + backoff
                backoff *= policy.backoff_multiplier
                if total_drain > policy.timeout:
                    break
                continue
            total_drain += drain + integrity.checksum_time
            committed = True
            break
        return CheckpointSaveOutcome(
            stall=blocking,
            drain_time=total_drain,
            attempts=attempts,
            committed=committed,
        )

    def recovery_time(self, optimized: bool = True) -> float:
        """Load the latest checkpoint into every GPU.

        Naive: every worker reads its partition directly (DP-duplicated
        parameter reads hammer HDFS).  Optimized: one reader per DP group
        + broadcast to peers.
        """
        if optimized:
            readers = self.plan.tp * self.plan.pp  # one per DP group
            read = self.hdfs.read_time(self.unique_bytes, readers)
            broadcast = tree_broadcast(
                self.bytes_per_gpu,
                self.plan.dp,
                self.node.nic_spec.line_rate,
                1e-5,
            )
            pcie = self.bytes_per_gpu / self.node.gpu_spec.pcie_bandwidth
            return read + broadcast + pcie
        total = self.bytes_per_gpu * self.plan.world_size
        read = self.hdfs.read_time(total, self.plan.world_size)
        pcie = self.bytes_per_gpu / self.node.gpu_spec.pcie_bandwidth
        return read + pcie


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with bounded attempts and cumulative timeout."""

    max_attempts: int = 4
    base_backoff: float = 5.0  # seconds before the first retry
    backoff_multiplier: float = 2.0
    timeout: float = 1800.0  # give up (fall back) past this much retry time

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("need at least one attempt")
        if self.base_backoff < 0 or self.backoff_multiplier < 1 or self.timeout <= 0:
            raise ValueError("invalid backoff parameters")


@dataclass(frozen=True)
class ShardIntegrityModel:
    """Per-attempt failure probabilities for checkpoint I/O.

    Both probabilities are per attempt; determinism comes from the
    caller's seeded generator.  ``partial_read_fraction`` is how much of
    a full transfer a transient failure wastes before it is detected.
    """

    corruption_probability: float = 0.0  # checksum mismatch on a completed read
    transient_failure_probability: float = 0.0  # stream dies mid-transfer
    checksum_time: float = 3.0  # one verification pass over the shards
    partial_read_fraction: float = 0.25

    def __post_init__(self) -> None:
        if not 0 <= self.corruption_probability < 1:
            raise ValueError("corruption probability must be in [0, 1)")
        if not 0 <= self.transient_failure_probability < 1:
            raise ValueError("transient failure probability must be in [0, 1)")
        if self.checksum_time < 0 or not 0 <= self.partial_read_fraction <= 1:
            raise ValueError("invalid timing parameters")

    def io_fails(self, rng: np.random.Generator) -> bool:
        return bool(rng.random() < self.transient_failure_probability)

    def read_corrupt(self, rng: np.random.Generator) -> bool:
        return bool(rng.random() < self.corruption_probability)


# A convenience instance for chaos runs: noticeable but survivable.
FLAKY_HDFS = ShardIntegrityModel(
    corruption_probability=0.05, transient_failure_probability=0.1
)


@dataclass(frozen=True)
class CheckpointLoadOutcome:
    """What one integrity-checked restore actually cost."""

    total_time: float
    attempts: int
    fell_back: bool  # loaded the N-1 checkpoint instead of the newest
    transient_failures: int
    checksum_failures: int


@dataclass(frozen=True)
class CheckpointSaveOutcome:
    """What one integrity-checked save actually cost."""

    stall: float  # on-path training interruption
    drain_time: float  # background HDFS upload including retries
    attempts: int
    committed: bool  # False: the drain gave up; previous checkpoint stands


def load_with_retry(
    recovery: float,
    rng: np.random.Generator,
    integrity: ShardIntegrityModel,
    policy: Optional[RetryPolicy] = None,
    bandwidth_factor: float = 1.0,
) -> CheckpointLoadOutcome:
    """Load the latest checkpoint, verifying shards and retrying.

    ``recovery`` is one clean load (:meth:`CheckpointPlanner.recovery_time`)
    at full bandwidth.  Each attempt either fails transiently partway
    through (charged a partial read plus backoff) or completes and is
    checksummed; a corrupt shard costs the full read plus backoff.  After
    ``policy.max_attempts`` attempts or once cumulative retry time passes
    ``policy.timeout``, the loader falls back to the N−1 checkpoint,
    which was verified when written and always loads.
    """
    policy = policy or RetryPolicy()
    base = recovery / bandwidth_factor
    total = 0.0
    backoff = policy.base_backoff
    attempts = 0
    transient_failures = 0
    checksum_failures = 0
    fell_back = True
    for _ in range(policy.max_attempts):
        attempts += 1
        if integrity.io_fails(rng):
            # The stream died partway: charge a partial read.
            total += integrity.partial_read_fraction * base + backoff
            transient_failures += 1
        else:
            total += base + integrity.checksum_time
            if not integrity.read_corrupt(rng):
                fell_back = False
                break
            checksum_failures += 1
            total += backoff
        backoff *= policy.backoff_multiplier
        if total > policy.timeout:
            break
    if fell_back:
        total += base + integrity.checksum_time
    return CheckpointLoadOutcome(
        total_time=total,
        attempts=attempts,
        fell_back=fell_back,
        transient_failures=transient_failures,
        checksum_failures=checksum_failures,
    )


def lost_progress(checkpoint_interval_iterations: int, iteration_time: float) -> float:
    """Expected training time lost to the last unsaved interval (half of it)."""
    if checkpoint_interval_iterations < 1 or iteration_time <= 0:
        raise ValueError("need positive interval and iteration time")
    return 0.5 * checkpoint_interval_iterations * iteration_time
