"""The Monte Carlo campaign engine: many-seed resilience distributions.

The chaos and scheduler scenarios elsewhere in this repo answer "what
happens under seed 0, 1, 2" — enough for a CI gate, nowhere near enough
to say "the p99 effective training rate at 512 nodes is X".  This module
runs the same simulations hundreds of seeds at a time and reduces them
to deterministic distributions, built on three layers:

1. **Throughput** — seeds fan out over :func:`repro.exec.run_tasks`
   process pools; inside each process the expensive campaign fixtures
   (parallel plan, checkpoint planner, domain topology) are built once
   and shared across every seed, because a
   :class:`~repro.fault.driver.ProductionRun` only reads them.  Fault
   timelines come from the batched count-first sampler
   (:class:`~repro.fault.faults.FaultInjector`).
2. **Aggregation** — workers return scalar metrics plus bounded
   :class:`~repro.observability.telemetry.PercentileDigest` sketches of
   the within-run distributions (incident downtime, detection latency);
   the parent merges sketches in seed order, so memory stays flat at
   500+ seeds and serial and parallel campaigns aggregate identically.
3. **Reporting** — :class:`~repro.montecarlo.result.CampaignResult`
   summarizes every metric with mean/p50/p90/p99 and bootstrap CIs, and
   tabulates incidents per fault kind.

Determinism contract: ``run_campaign`` output depends only on
``(scenario, spec, seeds, weeks)`` — never on ``workers`` or caching —
and ``CampaignResult.to_json`` is byte-identical across all execution
paths.  ``tests/montecarlo/`` also replays campaigns with the per-event
oracle sampler and unshared fixtures and expects the same bytes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exec.executor import run_tasks
from ..exec.memo import PersistentMemo, memoized
from ..fault.checkpoint import FLAKY_HDFS, CheckpointPlanner
from ..fault.domains import CorrelatedFaultInjector, DomainTopology
from ..fault.driver import ProductionRun, ProductionRunConfig
from ..model import GPT_175B
from ..observability.telemetry import PercentileDigest
from ..parallel.plan import plan_for_gpus
from ..scheduler.scenarios import run_policy
from .result import CampaignResult, DigestSummary, MetricSummary

SCENARIOS = ("chaos", "scheduler")

# Bump when the per-seed result layout changes: versions the
# PersistentMemo namespace so stale campaign entries never resurface.
_CACHE_SCHEMA = "mc1"

_MODELS = {"gpt-175b": GPT_175B}


@dataclass(frozen=True)
class CampaignSpec:
    """The defining parameters of a campaign (everything but the seeds).

    Chaos campaigns default to a 512-node production run under the
    correlated injector with zero spares and a flaky HDFS — the
    full degraded-mode pipeline the smoke gate
    ``tests/smoke/test_ci_gates.py::test_chaos_smoke`` runs at 128 nodes.
    Scheduler campaigns reuse the multi-tenant testbed of
    :mod:`repro.scheduler.scenarios`; only ``policy`` applies to them.
    """

    # -- chaos scenario -----------------------------------------------------
    n_nodes: int = 512
    gpus_per_node: int = 8
    tp: int = 8
    pp: int = 8
    vpp: int = 2
    nodes_per_rack: int = 4
    nodes_per_pod: int = 16
    rate_multiplier: float = 20.0  # compress weeks of faults into the horizon
    spares: int = 0
    model: str = "gpt-175b"
    # -- scheduler scenario -------------------------------------------------
    policy: str = "priority"

    def __post_init__(self) -> None:
        if self.n_nodes < 1 or self.gpus_per_node < 1:
            raise ValueError("cluster dimensions must be positive")
        if self.spares < 0:
            raise ValueError("spares must be non-negative")
        if self.model not in _MODELS:
            raise ValueError(f"unknown model {self.model!r}; known: {sorted(_MODELS)}")

    def fingerprint(self) -> str:
        """A stable key naming this spec (cache namespace component)."""
        fields = dataclasses.asdict(self)
        return ",".join(f"{k}={fields[k]}" for k in sorted(fields))

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class SeedTask:
    """One seed's worth of work, picklable for the process pool."""

    scenario: str
    spec: CampaignSpec
    seed: int
    weeks: float


# One expensive build per (process, spec), shared across seeds: a
# ProductionRun treats the plan and planner as read-only.
@memoized("mc_fixtures")
def _chaos_fixtures(spec: CampaignSpec) -> Tuple:
    plan = plan_for_gpus(
        spec.n_nodes * spec.gpus_per_node, tp=spec.tp, pp=spec.pp, vpp=spec.vpp
    )
    planner = CheckpointPlanner(model=_MODELS[spec.model], plan=plan)
    topology = DomainTopology(
        n_nodes=spec.n_nodes,
        nodes_per_rack=spec.nodes_per_rack,
        nodes_per_pod=spec.nodes_per_pod,
    )
    return plan, planner, topology


def _run_chaos_seed(task: SeedTask) -> dict:
    """One production run under correlated chaos; returns plain data."""
    spec = task.spec
    plan, planner, topology = _chaos_fixtures(spec)
    injector = CorrelatedFaultInjector(
        n_nodes=spec.n_nodes,
        topology=topology,
        rng=np.random.default_rng(task.seed),
        rate_multiplier=spec.rate_multiplier,
    )
    run = ProductionRun(
        plan,
        injector,
        planner=planner,
        rng=np.random.default_rng(task.seed),
        spares=spec.spares,
        integrity=FLAKY_HDFS,
        gpus_per_node=spec.gpus_per_node,
    )
    cfg = ProductionRunConfig()
    result = run.run(duration=task.weeks * 7 * 86400.0)
    log = result.log
    wall = result.wall_time

    effective = (
        result.effective_iterations
        if result.effective_iterations > 0
        else float(result.completed_iterations)
    )
    metrics = {
        "effective_rate": result.effective_rate(cfg.iteration_time),
        "goodput_tokens_per_s": effective * cfg.tokens_per_iteration / wall,
        "availability": max(0.0, min(1.0, 1.0 - log.total_downtime() / wall)),
        "mttr_s": log.mean_downtime(),
        "restarts": float(result.restarts),
        "lost_iterations": float(log.total_lost_iterations()),
        "spares_consumed": float(sum(r.spares_consumed for r in log.records)),
        "fallback_loads": float(log.fallback_loads()),
        "final_dp": float(result.final_dp or plan.dp),
    }
    incidents: Dict[str, int] = {}
    digests: Dict[str, PercentileDigest] = {
        "downtime_s": PercentileDigest(),
        "detection_s": PercentileDigest(),
    }
    for record in log.records:
        kind = record.fault.kind.name
        incidents[kind] = incidents.get(kind, 0) + 1
        digests["downtime_s"].observe(record.downtime)
        digests["detection_s"].observe(record.detection_time)
        digests.setdefault(f"downtime:{kind}", PercentileDigest()).observe(
            record.downtime
        )
    return {"seed": task.seed, "metrics": metrics, "incidents": incidents,
            "digests": digests}


def _run_scheduler_seed(task: SeedTask) -> dict:
    """One multi-tenant arbitration run; returns plain data."""
    report, _scheduler = run_policy(task.seed, task.spec.policy, days=task.weeks * 7.0)
    jobs = list(report.per_job.values())
    total_weight = sum(j.weight for j in jobs)
    up = sum(s.duration for s in report.segments if s.goodput > 0)
    metrics = {
        "goodput": report.mean_goodput,
        "availability": up / report.duration if report.duration > 0 else 0.0,
        "effective_rate": (
            sum(j.effective_rate * j.weight for j in jobs) / total_weight
            if total_weight > 0
            else 0.0
        ),
        "preemptions": float(sum(j.preemptions for j in jobs)),
        "spares_consumed": float(sum(report.spares_consumed_by.values())),
        "decisions": float(len(report.decisions)),
        "stalls": float(len(report.actions("stall"))),
    }
    incidents: Dict[str, int] = {}
    for decision in report.decisions:
        incidents[decision.action] = incidents.get(decision.action, 0) + 1
    goodput = PercentileDigest()
    for segment in report.segments:
        goodput.observe(segment.goodput)
    return {"seed": task.seed, "metrics": metrics, "incidents": incidents,
            "digests": {"goodput": goodput}}


def _run_seed(task: SeedTask) -> dict:
    """Top-level per-seed dispatcher (must stay module-level: pickled)."""
    if task.scenario == "chaos":
        return _run_chaos_seed(task)
    if task.scenario == "scheduler":
        return _run_scheduler_seed(task)
    raise ValueError(f"unknown scenario {task.scenario!r}; known: {SCENARIOS}")


def run_campaign(
    scenario: str = "chaos",
    seeds: Sequence[int] = tuple(range(32)),
    weeks: float = 1.0,
    workers: int = 0,
    spec: Optional[CampaignSpec] = None,
    cache: Optional[PersistentMemo] = None,
    hub: Optional[object] = None,
) -> CampaignResult:
    """Run one many-seed campaign and reduce it to distributions."""
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; known: {SCENARIOS}")
    if not seeds:
        raise ValueError("campaign needs at least one seed")
    if weeks <= 0:
        raise ValueError("weeks must be positive")
    spec = spec or CampaignSpec()
    tasks = [
        SeedTask(scenario=scenario, spec=spec, seed=int(seed), weeks=float(weeks))
        for seed in seeds
    ]
    # The cache key deliberately omits workers: every execution path
    # computes the same per-seed result, so any of them may serve a
    # later campaign from disk.
    cache_key = None
    if cache is not None:
        prefix = f"{_CACHE_SCHEMA}/{scenario}/{spec.fingerprint()}/{weeks:g}"
        cache_key = lambda task: f"{prefix}/{task.seed}"  # noqa: E731
    outcomes, stats = run_tasks(
        _run_seed, tasks, workers=workers, hub=hub, cache=cache, cache_key=cache_key
    )

    per_seed: Dict[str, List[float]] = {}
    incident_totals: Dict[str, int] = {}
    merged: Dict[str, PercentileDigest] = {}
    for outcome in outcomes:  # seed order == insertion order of `tasks`
        for name, value in outcome["metrics"].items():
            per_seed.setdefault(name, []).append(float(value))
        for kind, count in outcome["incidents"].items():
            incident_totals[kind] = incident_totals.get(kind, 0) + count
        for name, digest in outcome["digests"].items():
            merged.setdefault(name, PercentileDigest()).merge(digest)

    return CampaignResult(
        scenario=scenario,
        seeds=[int(s) for s in seeds],
        weeks=float(weeks),
        spec=spec.to_dict(),
        metrics={k: MetricSummary.from_values(v) for k, v in per_seed.items()},
        per_seed=per_seed,
        incident_totals=incident_totals,
        incident_distributions={
            k: DigestSummary.from_digest(d) for k, d in merged.items()
        },
        stats=stats,
    )
