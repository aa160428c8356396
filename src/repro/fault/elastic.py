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
hosts by :class:`~repro.scheduler.scheduler.ClusterScheduler`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from ..parallel.plan import ParallelPlan


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

    @property
    def throughput_factor(self) -> float:
        """Fraction of healthy tokens-per-iteration the new plan sustains.

        Per-replica batch is held constant, so tokens scale with DP.
        """
        return self.new_plan.dp / self.old_plan.dp

    def describe(self) -> str:
        return (
            f"dp {self.old_plan.dp} -> {self.new_plan.dp} on {self.available_gpus} GPUs "
            f"({self.throughput_factor:.0%} throughput)"
        )
