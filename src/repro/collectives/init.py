"""Collective communication group initialization (§3.5).

Reproduces the paper's measurement sequence on 2048 GPUs:

=================================  ==========
configuration                      init time
=================================  ==========
TCPStore + per-group barriers      ~1047 s
Redis + per-group barriers         ~361 s
Redis + ordered (O(n) barriers)    < 5 s
=================================  ==========

and < 30 s at 10,000+ GPUs with both optimizations.

Mechanism: ``torch.distributed.new_group`` is collective over the whole
world — every rank participates in every group creation — and the naive
flow runs a store-backed *global barrier* after each one.  With O(n)
groups in a 3D-parallel job, that is O(n) barriers of O(n) store ops:
O(n^2) total, served by a store whose per-op cost the implementation
determines.  Ordering group creation so that synchronization happens once
per *class* of groups cuts the barrier count to a constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..parallel.plan import ParallelPlan
from .kvstore import REDIS_STORE, StoreModel, TCP_STORE

# Store synchronizations torch.distributed performs per new_group call in
# the naive flow (prefix-store setup, rendezvous completion, trailing
# global barrier).
BARRIERS_PER_GROUP_NAIVE = 3
# Global barriers in the carefully ordered flow: one per group *class*
# (tp / dp / pp / embedding and friends), independent of world size.
BARRIERS_ORDERED = 8
# NCCL communicator bootstrap per group (unique-id broadcast, ring build):
# charged once per group member, overlapping across groups when ordered.
NCCL_BOOTSTRAP_PER_RANK = 0.9e-3
# When group creation is ordered, rendezvous for independent groups
# pipelines through the store (roughly the store's request-pipeline
# depth); the naive flow's interleaved barriers serialize it instead.
ORDERED_RENDEZVOUS_PIPELINING = 4.0


def _round_half_up(value: float) -> int:
    """Round to nearest int, halves up (``int()`` truncation biases low)."""
    return int(math.floor(value + 0.5))


@dataclass(frozen=True)
class InitBreakdown:
    """Where group-initialization time goes."""

    store: str
    ordered: bool
    world_size: int
    n_groups: int
    barrier_count: int
    barrier_time: float
    rendezvous_time: float
    nccl_bootstrap_time: float

    @property
    def total(self) -> float:
        return self.barrier_time + self.rendezvous_time + self.nccl_bootstrap_time


def count_groups(plan: ParallelPlan) -> int:
    """Communication groups a 3D-parallel job creates.

    One group per (tp, dp, pp) slice plus the world group and embedding
    groups (first/last-stage ties in Megatron).
    """
    n_tp = plan.pp * plan.dp
    n_dp = plan.pp * plan.tp
    n_pp = plan.dp * plan.tp
    n_embedding = plan.dp * plan.tp
    return n_tp + n_dp + n_pp + n_embedding + 1


def group_init_time(
    plan: ParallelPlan,
    store: StoreModel = TCP_STORE,
    ordered: bool = False,
) -> InitBreakdown:
    """Initialization wall time for the given configuration."""
    n = plan.world_size
    n_groups = count_groups(plan)
    if ordered:
        barrier_count = BARRIERS_ORDERED
    else:
        barrier_count = BARRIERS_PER_GROUP_NAIVE * n_groups
    barrier_time = barrier_count * store.barrier_time(n)

    # Rendezvous key exchange per group, sized by its membership.
    avg_group_size = (
        plan.tp * (plan.pp * plan.dp)
        + plan.dp * (plan.pp * plan.tp)
        + plan.pp * (plan.dp * plan.tp)
        + plan.tp * (plan.dp * plan.tp)
        + n
    ) / n_groups
    rendezvous = n_groups * store.rendezvous_time(max(1, _round_half_up(avg_group_size)))
    if ordered:
        rendezvous /= ORDERED_RENDEZVOUS_PIPELINING

    bootstrap = NCCL_BOOTSTRAP_PER_RANK * (n_groups * avg_group_size) / n
    return InitBreakdown(
        store=store.name,
        ordered=ordered,
        world_size=n,
        n_groups=n_groups,
        barrier_count=barrier_count,
        barrier_time=barrier_time,
        rendezvous_time=rendezvous,
        nccl_bootstrap_time=bootstrap,
    )


def paper_sequence(plan: ParallelPlan) -> dict:
    """The three configurations the paper reports, in order."""
    return {
        "tcpstore_naive": group_init_time(plan, TCP_STORE, ordered=False).total,
        "redis_naive": group_init_time(plan, REDIS_STORE, ordered=False).total,
        "redis_ordered": group_init_time(plan, REDIS_STORE, ordered=True).total,
    }
