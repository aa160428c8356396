"""Multi-tenant chaos: the scheduler's reference scenario.

Two tenants share a small cluster whose spare pool is deliberately
undersized (one standby for rack-sized blast radii).  The placement
shares rack 1 between the tenants, so a single rack-PSU event injures
both jobs at once and forces the spare broker to arbitrate the last
spare.  The scenario runs the same seeded fault timeline under both
arbitration policies:

* ``priority`` — the arbitrating scheduler: priority-weighted grants,
  preemption when a high-priority tenant would stall, DP-shrink for the
  rest, retry-with-backoff regrows.
* ``fifo`` — the naive baseline: submission-order grants and a full
  provisioning stall for every shortfall.

The smoke job's gate (``multi_tenant_chaos`` in ``tests/oracles/gates.py``)
replays this scenario per seed under both policies and checks replay
identity, a monotone goodput timeline, a balanced spare ledger, bounded
stalls and that arbitration beats FIFO on goodput.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..fault.domains import (
    LEAF_LINK_FAULT,
    RACK_POWER_FAULT,
    TOR_SWITCH_FAULT,
    CorrelatedFaultInjector,
    DomainTopology,
    FaultDomain,
)
from ..fault.faults import CUDA_ERROR, NCCL_HANG, NIC_DEGRADED
from ..parallel.plan import plan_for_gpus
from .job import JobSpec
from .scheduler import ClusterScheduler, MultiJobReport, SchedulerConfig

# The testbed: 12 nodes in racks of 4 (pods of 8), one spare.  Both
# tenants run tp=8/pp=1/dp=6 (6 hosts each), so the placement fills the
# machine and rack 1 (nodes 4-7) straddles the two jobs.
TESTBED_NODES = 12
TESTBED_SPARES = 1

# Compressed fault rates: a few correlated events plus the odd node
# fault per simulated day, so every seed exercises the arbitration path
# within a short horizon.
CHAOS_DOMAINS = [
    FaultDomain("rack-psu", RACK_POWER_FAULT, 6.5e-2, scope="rack"),
    FaultDomain("tor-switch", TOR_SWITCH_FAULT, 2.5e-2, scope="pod"),
    FaultDomain("leaf-link", LEAF_LINK_FAULT, 2.5e-2, scope="pod"),
]
CHAOS_CATALOG = [CUDA_ERROR, NCCL_HANG, NIC_DEGRADED]
CHAOS_RATE_MULTIPLIER = 50.0


def testbed_jobs() -> Tuple[JobSpec, ...]:
    """The two tenants: a heavy high-priority job and a cheap one."""
    return (
        JobSpec(
            name="prod",
            plan=plan_for_gpus(48, tp=8, pp=1),
            priority=10,
            weight=2.0,
            preemptible=False,
        ),
        JobSpec(
            name="research",
            plan=plan_for_gpus(48, tp=8, pp=1),
            priority=1,
            weight=1.0,
        ),
    )


def build_scheduler(
    seed: int,
    policy: str,
    hub: Optional[object] = None,
    config: Optional[SchedulerConfig] = None,
) -> ClusterScheduler:
    topology = DomainTopology(
        n_nodes=TESTBED_NODES, nodes_per_rack=4, nodes_per_pod=8
    )
    return ClusterScheduler(
        topology=topology,
        jobs=testbed_jobs(),
        spares=TESTBED_SPARES,
        policy=policy,
        config=config,
        rng=np.random.default_rng(seed),
        hub=hub,
    )


def build_injector(seed: int) -> CorrelatedFaultInjector:
    return CorrelatedFaultInjector(
        n_nodes=TESTBED_NODES,
        topology=DomainTopology(
            n_nodes=TESTBED_NODES, nodes_per_rack=4, nodes_per_pod=8
        ),
        domains=list(CHAOS_DOMAINS),
        rng=np.random.default_rng(seed),
        catalog=list(CHAOS_CATALOG),
        rate_multiplier=CHAOS_RATE_MULTIPLIER,
    )


def run_policy(
    seed: int,
    policy: str,
    days: float = 3.0,
    hub: Optional[object] = None,
) -> Tuple[MultiJobReport, ClusterScheduler]:
    """One full multi-tenant run under one arbitration policy."""
    scheduler = build_scheduler(seed, policy, hub=hub)
    report = scheduler.run(build_injector(seed), duration=days * 86400.0)
    return report, scheduler
