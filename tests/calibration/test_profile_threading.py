"""Profile threading: engine, systems, tuner, cache keys, comm model."""

import pytest

from repro.calibration import CalibratedProfile, IDENTITY_PROFILE
from repro.collectives.groups import build_comm_model
from repro.collectives.primitives import INTER_NODE_LATENCY
from repro.core.config import TrainingJob
from repro.core.features import MEGASCALE_ISO_BATCH
from repro.core.megascale import compare, megascale
from repro.hardware import AMPERE
from repro.model import GPT_13B
from repro.parallel import ParallelPlan
from repro.parallel.search import plan_cache_key, search_plans
from repro.training.iteration import IterationEngine

PROFILE = CalibratedProfile(
    gemm_eff_max=0.70,
    gemm_flops_half=40e9,
    cc_efficiency=0.85,
    inter_node_latency=20e-6,
    source="unit-test",
)
PLAN = ParallelPlan(dp=2, tp=2, pp=2)


def test_engine_profile_overrides_gpu_and_comm():
    default = IterationEngine(GPT_13B, PLAN, MEGASCALE_ISO_BATCH)
    calibrated = IterationEngine(GPT_13B, PLAN, MEGASCALE_ISO_BATCH, profile=PROFILE)
    assert calibrated.gpu.gemm_eff_max == 0.70
    assert calibrated.comm.cc_efficiency == 0.85
    assert calibrated.comm.inter_node_latency == 20e-6
    # MFU accounting still uses the datasheet peak
    assert calibrated.peak_flops == default.peak_flops == AMPERE.peak_flops
    t_default = default.simulate(16).iteration_time
    t_calibrated = calibrated.simulate(16).iteration_time
    assert t_calibrated > t_default  # derated efficiency -> slower


def test_engine_none_and_identity_profiles_are_bit_identical():
    base = IterationEngine(GPT_13B, PLAN, MEGASCALE_ISO_BATCH).simulate(16)
    none_p = IterationEngine(
        GPT_13B, PLAN, MEGASCALE_ISO_BATCH, profile=None
    ).simulate(16)
    identity = IterationEngine(
        GPT_13B, PLAN, MEGASCALE_ISO_BATCH, profile=IDENTITY_PROFILE
    ).simulate(16)
    assert none_p == base
    assert identity == base


def test_training_system_threads_profile():
    job = TrainingJob(model="gpt-13b", n_gpus=8, global_batch=16, tp=2, pp=2)
    default = megascale().run(job)
    calibrated = megascale(profile=PROFILE).run(job)
    assert calibrated.iteration_time > default.iteration_time
    assert calibrated.mfu < default.mfu
    # engines are cached under distinct (.., profile) keys
    system = megascale(profile=PROFILE)
    system.run(job)
    assert all(key[-1] == PROFILE for key in system._engines)
    # compare() forwards the profile to both sides
    comparison = compare(job, profile=PROFILE)
    assert comparison.megascale.iteration_time == pytest.approx(
        calibrated.iteration_time
    )


def test_tune_default_path_bit_identical_with_none_profile():
    baseline = search_plans(GPT_13B, n_gpus=8, global_batch=32, top_k=3).top
    with_none = search_plans(GPT_13B, n_gpus=8, global_batch=32, top_k=3, profile=None).top
    assert baseline == with_none


def test_tune_with_profile_reprices_candidates():
    baseline = search_plans(GPT_13B, n_gpus=8, global_batch=32, top_k=1).top
    calibrated = search_plans(
        GPT_13B, n_gpus=8, global_batch=32, top_k=1, profile=PROFILE
    ).top
    assert calibrated[0].iteration_time > baseline[0].iteration_time


def test_plan_cache_key_profile_segment():
    plan = ParallelPlan(dp=4, tp=2, pp=1)
    base = plan_cache_key(GPT_13B, plan, MEGASCALE_ISO_BATCH, AMPERE, 32)
    with_none = plan_cache_key(
        GPT_13B, plan, MEGASCALE_ISO_BATCH, AMPERE, 32, profile=None
    )
    with_profile = plan_cache_key(
        GPT_13B, plan, MEGASCALE_ISO_BATCH, AMPERE, 32, profile=PROFILE
    )
    assert with_none == base  # pre-existing cache entries stay valid
    assert with_profile != base
    assert "profile=" in with_profile and "unit-test" in with_profile


def test_comm_model_inter_node_latency_field():
    plan = ParallelPlan(dp=4, tp=2, pp=1)
    default = build_comm_model(plan)
    assert default.inter_node_latency == INTER_NODE_LATENCY
    slow = build_comm_model(plan, inter_node_latency=50e-6)
    size = 1 << 20
    assert slow.dp_collective_time("all_reduce", size) > default.dp_collective_time(
        "all_reduce", size
    )
    assert slow.pp_p2p_time(size) > default.pp_p2p_time(size)
    with pytest.raises(ValueError):
        build_comm_model(plan, inter_node_latency=-1.0)


def test_profile_is_hashable_and_picklable():
    import pickle

    assert pickle.loads(pickle.dumps(PROFILE)) == PROFILE
    assert hash(PROFILE) == hash(pickle.loads(pickle.dumps(PROFILE)))
