"""Injected-cause scenarios: the only way to validate a diagnoser.

Each scenario builds a small training run (GPT-13B, dp=2 x tp=2 x pp=4)
on a :class:`~repro.observability.TelemetryHub`, runs healthy for the
first ``k`` steps, then injects exactly one known cause and keeps
emitting telemetry.  The smoke job's gate (``diagnose_smoke`` in
``tests/oracles/gates.py``) asserts, per seed:

* the report is byte-identical across two independent runs,
* the top-ranked finding blames the injected cause,
* the clean scenario yields zero findings.

The seed moves the onset step and the injected location (straggler
stage, blasted ToR) so attribution isn't memorizing fixed coordinates.

Producer imports live inside :func:`run_scenario`: the scenarios reuse
the *real* emission helpers (training runner, fault driver, collective
runtime, congestion model), and importing those at module scope would
cycle back into :mod:`repro.observability` during package init.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..telemetry import TelemetryHub

SCENARIOS = (
    "clean",
    "straggler",
    "tor-blast",
    "ecmp-collision",
    "preemption",
    "data-stall",
)

# What the top-ranked finding must blame (None = no findings at all).
TRUE_CAUSE: Dict[str, Optional[str]] = {
    "clean": None,
    "straggler": "straggler",
    "tor-blast": "tor-blast",
    "ecmp-collision": "ecmp-collision",
    "preemption": "preemption",
    "data-stall": "data-pipeline-stall",
}


class _CongestedComm:
    """Delegating comm model with DP collectives slowed by ``factor`` —
    the iteration-engine-side effect of a persistent ECMP collision."""

    def __init__(self, inner, factor: float) -> None:
        self._inner = inner
        self.factor = factor

    def dp_collective_time(self, *args, **kwargs) -> float:
        return self._inner.dp_collective_time(*args, **kwargs) * self.factor

    def __getattr__(self, name):
        return getattr(self._inner, name)


def run_scenario(name: str, seed: int = 0, n_steps: int = 24) -> TelemetryHub:
    """Emit one scenario's full telemetry; returns the populated hub."""
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; pick from {SCENARIOS}")
    from ...collectives.runtime import RingCollectiveRuntime
    from ...core.features import MEGASCALE_ISO_BATCH
    from ...fault.driver import emit_incident_telemetry
    from ...fault.faults import NIC_DOWN, FaultEvent
    from ...model.transformer import GPT_13B
    from ...network.congestion import simulate_bottleneck
    from ...network.topology import ClosFabric
    from ...parallel.plan import ParallelPlan
    from ...training.iteration import IterationEngine
    from ...training.runner import emit_expectation, emit_iteration

    hub = TelemetryHub(job_name=f"diagnose-{name}")
    model, features, global_batch = GPT_13B, MEGASCALE_ISO_BATCH, 32
    plan = ParallelPlan(dp=2, tp=2, pp=4, vpp=1)
    engine = IterationEngine(model, plan, features)
    emit_expectation(hub, engine, global_batch)

    k = 10 + seed % 3  # onset step
    stage = seed % plan.pp  # straggler stage / blasted ToR index
    speeds: Sequence[float] = [0.85 if s == stage else 1.0 for s in range(plan.pp)]

    degraded: Optional[IterationEngine] = None
    if name == "ecmp-collision":
        degraded = IterationEngine(
            model, plan, features, comm_model=_CongestedComm(engine.comm, 10.0)
        )
    elif name == "preemption":
        degraded = IterationEngine(model, plan.with_options(dp=1), features)
    elif name == "data-stall":
        degraded = IterationEngine(
            model,
            plan,
            features.with_options(
                async_data_pipeline=False, tree_based_loading=False
            ),
        )

    clock = 0.0
    for step in range(n_steps):
        onset = step == k
        injured = name != "clean" and step >= k

        if onset and name == "tor-blast":
            nodes = tuple(range(4 * stage, 4 * stage + 4))
            event = FaultEvent(
                time=clock,
                kind=NIC_DOWN,
                node_index=nodes[0],
                node_indices=nodes,
                domain=f"tor{stage}",
            )
            detected = clock + 120.0
            resumed = detected + 300.0
            emit_incident_telemetry(
                hub, event, detected, resumed, lost_iterations=3
            )
            for i in range(1, 5):  # the job is down: health gauges read zero
                t = clock + i * (resumed - clock) / 5.0
                hub.sample("training", "mfu", t, 0.0)
                hub.sample("training", "tokens_per_second", t, 0.0)
            clock = resumed
        elif onset and name == "ecmp-collision":
            # Evidence on the collectives/network lanes: a cross-pod ring
            # whose flows hash-collide on one spine uplink, plus a DCQCN
            # incast probe, both stamped at the scenario clock.
            fabric = ClosFabric(
                n_nodes=8, nodes_per_pod=4, n_spines=4, agg_uplinks_per_spine=1
            )
            runtime = RingCollectiveRuntime(
                fabric, node_of_rank=[0, 4, 1, 5, 2, 6, 3, 7]
            )
            runtime.run("all_gather", 1 << 24, hub=hub, at=clock)
            simulate_bottleneck("dcqcn", 8, duration=0.02, hub=hub, t0=clock)
        elif onset and name == "preemption":
            hub.instant(
                "scheduler", "preempt", clock, job="train", nodes=plan.dp // 2
            )

        if name == "straggler" and injured:
            iteration = engine.simulate(global_batch, stage_speed=speeds)
            emit_iteration(
                hub, engine, global_batch, step, clock, iteration,
                stage_speed=speeds,
            )
        elif degraded is not None and injured:
            iteration = degraded.simulate(global_batch)
            emit_iteration(hub, degraded, global_batch, step, clock, iteration)
        else:
            iteration = engine.simulate(global_batch)
            emit_iteration(hub, engine, global_batch, step, clock, iteration)
        if name == "preemption":
            hub.sample(
                "scheduler", "goodput", clock + iteration.iteration_time,
                0.5 if injured else 1.0,
            )
        clock += iteration.iteration_time
    return hub
