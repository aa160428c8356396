"""Elastic degraded-mode recovery: shrink DP instead of stalling (§4 ext).

When a fault (or a correlated rack fault) claims more nodes than the
spare pool can replace, the paper's alternative to paging an operator
and stalling the job is to *keep training smaller*: drop the dead
data-parallel replicas, re-plan to the largest DP degree the surviving
GPUs support, and resume at reduced throughput until capacity returns.

The re-plan keeps the model-parallel layout fixed (re-sharding mid-run
would mean a full re-deployment) and sheds only data-parallel replicas,
so it is arithmetic: :func:`shrunk_dp` is the one shrink rule, used
GPU-granular by :class:`~repro.fault.driver.ProductionRun` and on whole
hosts by :class:`~repro.scheduler.scheduler.ClusterScheduler`.  Both
price the restart that follows through :func:`restart_price`, once per
distinct plan in a process.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import gcd
from typing import NamedTuple, Optional

from ..collectives.init import group_init_time
from ..collectives.kvstore import REDIS_STORE
from ..exec.memo import get_cache
from ..parallel.plan import ParallelPlan
from .checkpoint import CheckpointPlanner


def shrunk_dp(plan: ParallelPlan, gpus: int, gpus_per_node: int = 1) -> int:
    """Largest DP degree ``gpus`` GPUs sustain on ``plan``'s layout (0 = none).

    The largest ``d <= min(plan.dp, gpus // (tp * pp))`` whose
    ``d * tp * pp`` GPUs fill whole ``gpus_per_node``-GPU hosts, i.e. a
    multiple of ``gpus_per_node // gcd(tp * pp, gpus_per_node)``.  For a
    plan that fills whole hosts this is ``plan.dp`` when nothing is lost.
    """
    model_parallel = plan.tp * plan.pp
    d = max(0, min(plan.dp, gpus // model_parallel))
    return d - d % (gpus_per_node // gcd(model_parallel, gpus_per_node))


@dataclass(frozen=True)
class ElasticDecision:
    """Outcome of one spare-exhausted re-plan."""

    old_plan: ParallelPlan
    new_plan: ParallelPlan
    available_gpus: int


class RestartPrice(NamedTuple):
    """What resuming a job on a (possibly shrunk) plan costs."""

    plan: ParallelPlan  # the plan the job resumes on
    init_time: float  # ordered Redis group init (§3.5)
    recovery_time: Optional[float]  # checkpoint load; None without a planner


def restart_price(
    plan: ParallelPlan,
    dp: int,
    planner: Optional[CheckpointPlanner] = None,
    optimized: bool = True,
) -> RestartPrice:
    """The price of restarting ``plan`` at ``dp`` replicas.

    The job resumes on ``plan`` itself at ``dp == plan.dp`` and on
    ``plan.with_options(dp=dp)`` below it.  With a ``planner`` the price
    includes the checkpoint load of the resumed plan on the planner's
    model, node and HDFS (its own ``plan`` is not read).  Memoized in the
    ``restart_price`` cache, registered on its first call and keyed by
    everything the price reads, so a chaos campaign prices each of its
    few distinct restarts once and every incident only draws its retry
    outcome.
    """
    key = (plan, dp) if planner is None else (
        plan, dp, planner.model, planner.node, planner.hdfs, optimized
    )
    return get_cache("restart_price").lookup(
        key, lambda: _price_restart(plan, dp, planner, optimized)
    )


def _price_restart(
    plan: ParallelPlan,
    dp: int,
    planner: Optional[CheckpointPlanner] = None,
    optimized: bool = True,
) -> RestartPrice:
    """:func:`restart_price` without the memo."""
    resumed = plan if dp == plan.dp else plan.with_options(dp=dp)
    init = group_init_time(resumed, REDIS_STORE, ordered=True).total
    recovery = None
    if planner is not None:
        recovery = replace(planner, plan=resumed).recovery_time(optimized)
    return RestartPrice(resumed, init, recovery)
