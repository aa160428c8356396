"""Integration tests across subsystem boundaries.

These exercise the paths the benchmarks rely on, end to end: job ->
plan -> engine -> report; fault injection -> detection -> recovery;
trace recording -> observability analysis.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import compare, job_175b, job_530b, megascale, megatron_lm
from repro.core.features import MEGASCALE_ISO_BATCH
from repro.fault import CheckpointPlanner, FaultInjector, ProductionRun
from repro.fault.faults import GPU_ECC
from repro.model import GPT_175B
from repro.observability import DistributedTimeline, analyze, localize_hang, simulate_timeout_logs
from repro.observability.cuda_events import CudaEventTimer
from repro.parallel import ParallelPlan, bubble_fraction, plan_for_gpus
from repro.sim import TraceRecorder
from repro.training import IterationEngine
from tests.oracles.live_driver import LiveDriver


def test_end_to_end_comparison_all_paper_scales():
    for n, bs in ((256, 768), (3072, 6144)):
        result = compare(job_175b(n_gpus=n, global_batch=bs))
        assert result.speedup > 1.1
        details = result.megascale.details
        assert details.iteration_time == pytest.approx(
            details.data_stall
            + details.pipeline_time
            + details.dp_exposed
            + details.optimizer_time
            + details.perturbation
        )


def test_530b_weak_scaling_configuration_valid():
    report = megascale().run(job_530b(n_gpus=1120))
    assert 0.4 < report.mfu < 0.8
    assert report.job.plan().layers_per_chunk(105) == 1


def test_engine_trace_feeds_observability():
    plan = plan_for_gpus(64, tp=8, pp=4, vpp=2)
    engine = IterationEngine(GPT_175B.with_options(seq_len=2048), plan, MEGASCALE_ISO_BATCH)
    trace = TraceRecorder()
    makespan, busy = engine.pipeline_makespan(m=8, trace=trace)
    timeline = DistributedTimeline.from_trace(trace)
    assert len(timeline.events) == 4 * 8 * 2 * 2  # stages x mb x chunks x {F,B}
    start, end = timeline.extent()
    assert end == pytest.approx(makespan)
    # Measured stage-0 bubbles are consistent with the closed form (loose).
    bubble = timeline.bubble_time(0) / makespan
    assert bubble < bubble_fraction(4, 2, 8) + 0.25


# (p, v) whose p·v chunks divide GPT-175B's 96 layers; interleaving needs p > 1.
_SHAPES = [
    (p, v) for p in (1, 2, 3, 4, 6, 8) for v in (1, 2, 3, 4)
    if 96 % (p * v) == 0 and (v == 1 or p > 1)
]


@st.composite
def _pipeline_shapes(draw):
    p, v = draw(st.sampled_from(_SHAPES))
    # Interleaved 1F1B runs micro-batches in groups of p.
    m = p * draw(st.integers(1, 4)) if v > 1 else draw(st.integers(1, 16))
    return p, v, m


@settings(max_examples=100, deadline=None)
@given(
    shape=_pipeline_shapes(),
    F=st.floats(1e-3, 10.0),
    B=st.floats(1e-3, 10.0),
)
# One micro-batch: the whole pipeline phase is the warm-up and cool-down chains.
@example(shape=(6, 1, 1), F=1.0, B=2.7353998875211243)
def test_pipeline_makespan_matches_bubble_theory(shape, F, B):
    # Megatron-LM's interleaved bubble (Narayanan et al. 2021): with no p2p
    # time and no embedding or logits extras, the makespan is exactly
    # m·v·(F+B)·(1 + (p-1)/(v·m)), and the search's lower bound is tight.
    p, v, m = shape
    engine = IterationEngine(GPT_175B, ParallelPlan(dp=1, tp=8, pp=p, vpp=v), MEGASCALE_ISO_BATCH)
    engine.f_chunk, engine.b_chunk = F, B
    engine.p2p_time = engine.embed_extra = engine.logits_fwd = engine.logits_bwd = 0.0
    expected = m * v * (F + B) * (1 + bubble_fraction(p, v, m))
    assert engine.pipeline_makespan(m)[0] == pytest.approx(expected, rel=1e-12)
    # Outside the pipeline phase the bound prices the step exactly.
    data, dp, optimizer = engine._dp_phase_times(m)
    floor = engine.analytic_bounds(global_batch=m)
    assert floor == pytest.approx(data.exposed_stall + optimizer + dp.exposed + expected, rel=1e-12)
    assert floor == pytest.approx(engine.simulate(m).iteration_time, rel=1e-12)


def test_straggler_detection_pipeline_round_trip():
    # Engine produces per-stage times; the heat map finds the slow stage.
    plan = plan_for_gpus(64, tp=8, pp=8, vpp=1)
    engine = IterationEngine(GPT_175B, plan, MEGASCALE_ISO_BATCH)
    timer = CudaEventTimer()
    speeds = [1.0] * 8
    speeds[5] = 0.9
    for step in range(6):
        for stage in range(8):
            timer.record(stage, step, "forward", engine.f_chunk / speeds[stage])
    result = analyze(timer, "forward")
    assert result.outliers == (5,)


def test_fault_to_recovery_full_loop():
    driver = LiveDriver(4, n_spares=2)
    driver.sim.run(until=30.0)
    victim = 2
    driver.inject(victim, GPU_ECC)
    driver.sim.run(until=70.0)
    assert driver.check(), "ECC fault must surface through heartbeats"
    evicted = driver.recover()
    assert victim in evicted
    # The replacement heartbeats too.
    driver.sim.run(until=120.0)
    assert driver.check() == {}
    assert all(driver.histories.values())


def test_hang_localization_matches_planted_fault():
    plan = plan_for_gpus(128, tp=8, pp=4, vpp=1)
    faulty = [37]
    logs = simulate_timeout_logs(plan, faulty)
    diagnosis = localize_hang(plan, logs)
    assert diagnosis.hung_ranks == set(faulty)
    assert diagnosis.consistent


def test_production_run_scales_restarts_with_fault_rate():
    plan = plan_for_gpus(256, tp=8, pp=8)
    planner = CheckpointPlanner(model=GPT_175B, plan=plan)
    week = 7 * 86400.0
    low = ProductionRun(
        plan,
        FaultInjector(n_nodes=32, rng=np.random.default_rng(0)),
        planner=planner,
        rng=np.random.default_rng(0),
    ).run(week)
    high = ProductionRun(
        plan,
        FaultInjector(n_nodes=32, rng=np.random.default_rng(0), rate_multiplier=10.0),
        planner=planner,
        rng=np.random.default_rng(0),
    ).run(week)
    assert high.restarts > low.restarts
    assert high.effective_rate(6.34) < 1.0


def test_systems_share_substrate_but_not_features():
    job = job_175b(256, 768)
    ms = megascale().run(job)
    mt = megatron_lm().run(job)
    # Same model FLOPs (the MFU numerator) on both systems.
    assert ms.aggregate_pflops * ms.iteration_time == pytest.approx(
        mt.aggregate_pflops * mt.iteration_time, rel=1e-9
    )
    assert ms.mfu > mt.mfu
