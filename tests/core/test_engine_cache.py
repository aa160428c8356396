"""Regression tests: one TrainingSystem must price jobs that differ only
in GPU spec or ZeRO stage differently.

An engine cache once keyed only on (model name, n_gpus, tp, pp, vpp,
micro_batch), so such jobs silently reused a stale IterationEngine and
returned the first job's timings for both.  The system now builds a
fresh engine per run; the pricing memos it relies on key on every
argument.
"""

from dataclasses import replace

from repro import TrainingJob, megascale


def _job(**overrides) -> TrainingJob:
    base = TrainingJob(
        model="gpt-13b", n_gpus=16, global_batch=64, tp=2, pp=2, vpp=1
    )
    return replace(base, **overrides) if overrides else base


def test_engine_cache_distinguishes_gpu_specs():
    system = megascale()
    on_ampere = system.run(_job(gpu="ampere-80g"))
    on_hopper = system.run(_job(gpu="hopper-80g"))
    # A Hopper part is ~3x faster; identical timings mean a stale engine.
    assert on_hopper.iteration_time < on_ampere.iteration_time


def test_engine_cache_distinguishes_zero_stage():
    system = megascale()
    sharded = system.run(_job(zero_stage=2))
    unsharded = system.run(_job(zero_stage=0))
    # ZeRO shards the optimizer state across dp: a faster optimizer step.
    assert sharded.details.optimizer_time < unsharded.details.optimizer_time


def test_engine_cache_still_reuses_identical_jobs():
    system = megascale()
    a = system.run(_job())
    b = system.run(_job())  # a distinct but equal TrainingJob instance
    assert a.iteration_time == b.iteration_time
