"""Tests for the public API: jobs, systems, reports."""

import pytest

import repro
from repro import (
    MEGASCALE_ISO_BATCH,
    MEGATRON_LM,
    TrainingJob,
    compare,
    job_175b,
    job_530b,
    megascale,
    megatron_lm,
    render_table,
)
from repro.core.report import JobReport


def test_version_exposed():
    assert repro.__version__


def test_job_resolves_catalog_names():
    job = TrainingJob(model="gpt-175b", n_gpus=256, global_batch=256, vpp=6)
    assert job.model_spec.n_layers == 96
    assert job.gpu_spec.name == "ampere-80g"
    assert job.n_hosts == 32


def test_job_unknown_names_rejected():
    with pytest.raises(ValueError):
        TrainingJob(model="gpt-9000b", n_gpus=256, global_batch=256)
    with pytest.raises(ValueError):
        TrainingJob(model="gpt-175b", n_gpus=256, global_batch=256, gpu="tpu-v5")
    with pytest.raises(ValueError):
        TrainingJob(model="gpt-175b", n_gpus=0, global_batch=256)


def test_job_plan_derives_dp():
    job = job_175b(n_gpus=12288)
    plan = job.plan()
    assert plan.dp == 192
    assert plan.vpp == 6


def test_job_530b_weak_scaling_batch():
    job = job_530b(n_gpus=2240)
    assert job.global_batch == 2240
    assert job.plan().pp == 35


def test_scaled_to():
    job = job_175b(256, 768).scaled_to(512)
    assert job.n_gpus == 512
    assert job.global_batch == 768


def test_run_produces_report():
    report = megascale().run(job_175b(256, 768))
    assert report.system == "MegaScale"
    assert 0.5 < report.mfu < 0.75
    assert report.throughput_tokens_per_s > 0
    assert report.training_days_300b > 0
    assert report.aggregate_pflops > 0


def test_compare_megascale_wins():
    result = compare(job_175b(256, 768))
    assert result.speedup > 1.1
    assert result.mfu_gain > 0.05
    assert "MegaScale" in result.summary()


def test_megatron_pays_straggler_lottery():
    big = job_175b(12288, 6144)
    assert megatron_lm().speed_factor(big) < 1.0
    assert megascale().speed_factor(big) == 1.0


def test_engine_cache_reused():
    system = megascale()
    job = job_175b(256, 768)
    first = system.run(job)
    assert system.run(job).iteration_time == first.iteration_time
    assert system.run(job.scaled_to(512)).iteration_time < first.iteration_time


def test_table_rendering():
    reports = [megascale().run(job_175b(256, 768))]
    table = render_table(reports)
    lines = table.splitlines()
    assert "MFU" in lines[0]
    assert "MegaScale" in lines[1]


def test_custom_features():
    custom = megascale(MEGASCALE_ISO_BATCH.with_options(tp_overlap=False))
    default = megascale()
    job = job_175b(256, 768)
    assert custom.run(job).mfu < default.run(job).mfu


def test_report_consistency_with_paper_units():
    # Table 2 row shape: MegaScale @ 256 GPUs/bs 768: ~49k tokens/s.
    report = megascale().run(job_175b(256, 768))
    assert report.throughput_tokens_per_s == pytest.approx(49.0e3, rel=0.1)


def test_features_presets_differ():
    assert MEGATRON_LM.tp_overlap is False
    assert MEGASCALE_ISO_BATCH.tp_overlap is True
    assert "baseline" in MEGATRON_LM.describe()


def test_job_report_is_value_object():
    job = job_175b(256, 768)
    r = JobReport(system="x", job=job, iteration_time=10.0, mfu=0.5)
    assert r.table_row()
