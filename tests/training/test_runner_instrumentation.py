"""Tests for the runner -> observability instrumentation path."""

from repro.core.features import MEGASCALE_ISO_BATCH, MEGATRON_LM
from repro.model import GPT_13B
from repro.observability import (
    CudaEventTimer,
    TelemetryHub,
    attribute_decline,
    diagnose,
)
from repro.parallel import ParallelPlan
from repro.training import TrainingRunner


PLAN = ParallelPlan(dp=2, tp=8, pp=2, vpp=2)


def _timed_run(runner, n_iterations):
    """Run through a hub and read the segments back as CUDA-event records."""
    hub = TelemetryHub()
    runner.run(n_iterations, hub=hub)
    return CudaEventTimer.from_spans(hub.spans("training"))


def test_runner_records_all_segments():
    runner = TrainingRunner(GPT_13B, PLAN, MEGASCALE_ISO_BATCH, global_batch=32)
    timer = _timed_run(runner, 4)
    assert set(timer.segments()) == {"forward", "backward", "optimizer", "reduce_scatter"}
    assert timer.ranks() == [0, 1]  # one lane per pipeline stage
    # 4 steps x 2 stages x 4 segments.
    assert len(timer.records) == 4 * 2 * 4


def test_dirty_run_instrumentation_reveals_the_paper_diagnosis():
    # End-to-end: dirty run -> recorded segments -> attribution reaches
    # the paper's conclusion (growing reduce-scatter launch skew).
    runner = TrainingRunner(
        GPT_13B,
        PLAN,
        MEGASCALE_ISO_BATCH.with_options(clean_codepath=False),
        global_batch=32,
        seed=2,
    )
    result = attribute_decline(_timed_run(runner, 60))
    assert result.culprit in ("forward", "reduce_scatter")
    assert result.launch_skew_growing or result.culprit == "forward"


def test_clean_run_diagnoses_healthy():
    runner = TrainingRunner(GPT_13B, PLAN, MEGASCALE_ISO_BATCH, global_batch=32)
    report = diagnose(_timed_run(runner, 30))
    assert report.healthy, report.render()


def test_straggler_run_flagged_by_diagnosis():
    # A slowed stage shows up as a heat-map outlier through the runner.
    # Robust outlier detection needs a population: use an 8-deep pipeline.
    plan = ParallelPlan(dp=1, tp=8, pp=8, vpp=1)
    timer = CudaEventTimer()
    runner = TrainingRunner(GPT_13B, plan, MEGATRON_LM, global_batch=32)
    engine = runner._engine
    for step in range(10):
        for stage in range(plan.pp):
            slow = 1.12 if stage == 1 else 1.0
            timer.record(stage, step, "forward", engine.f_chunk * slow)
    report = diagnose(timer, gpus_per_node=1)
    assert report.straggler_nodes == [1]
