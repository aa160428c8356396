"""The shrink enumeration: the oracle for the elastic DP-shrink rule.

:func:`repro.fault.elastic.shrunk_dp` answers "largest DP degree these
GPUs sustain on whole hosts" with one modulo.  This enumerates every
same-layout plan with DP reduced to fit, largest first, takes the first
one as the re-plan, and walks the candidates until one fills whole
hosts, building a ``ParallelPlan`` per candidate.  The property tests in
``tests/fault/test_elastic_recovery.py`` hold the two equal, and
``tests/montecarlo/test_campaign.py`` replays whole campaigns through
this path to hold their documents byte-identical.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.fault.elastic import ElasticDecision
from repro.parallel.plan import ParallelPlan


def iter_shrink_dp_plans(plan: ParallelPlan, n_gpus: int) -> Iterator[ParallelPlan]:
    """Same-(tp, pp, vpp, micro-batch) plans with DP reduced to fit ``n_gpus``.

    The degraded-mode recovery path keeps the model-parallel layout
    intact (re-sharding mid-run would mean a full re-deployment) and
    only sheds data-parallel replicas.  Candidates come largest-DP
    first, so the first feasible one loses the least throughput.
    """
    if n_gpus < 1:
        raise ValueError("n_gpus must be >= 1")
    model_parallel = plan.tp * plan.pp
    max_dp = min(n_gpus // model_parallel, plan.dp)
    for d in range(max_dp, 0, -1):
        yield plan.with_options(dp=d)


def shrink_dp_plans(plan: ParallelPlan, n_gpus: int) -> List[ParallelPlan]:
    """Eager form of :func:`iter_shrink_dp_plans`."""
    return list(iter_shrink_dp_plans(plan, n_gpus))


def replan(plan: ParallelPlan, available_gpus: int) -> Optional[ElasticDecision]:
    """Largest-DP shrink, or ``None`` if nothing fits.

    Raises ``ValueError`` if ``available_gpus`` already covers the
    current plan (shrinking would be a no-op — the caller should
    simply replace nodes).
    """
    if available_gpus >= plan.world_size:
        raise ValueError("no shrink needed: plan already fits the available GPUs")
    for candidate in iter_shrink_dp_plans(plan, available_gpus):
        return ElasticDecision(
            old_plan=plan, new_plan=candidate, available_gpus=available_gpus
        )
    return None


def shrunk_dp_reference(plan: ParallelPlan, gpus: int, gpus_per_node: int = 1) -> int:
    """Largest DP degree ``gpus`` GPUs can sustain on whole hosts (0 = none)."""
    if gpus >= plan.world_size:
        return plan.dp
    if gpus < 1:
        return 0
    for candidate in shrink_dp_plans(plan, gpus):
        if candidate.world_size % gpus_per_node:
            continue
        decision = replan(plan, candidate.world_size)
        if decision is not None:
            return decision.new_plan.dp
    return 0
