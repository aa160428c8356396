"""Tests for the diagnostic suite and two-stage checkpointing."""

import pytest

from repro.fault import CheckpointPlanner, DiagnosticSuite, HdfsModel, lost_progress
from repro.model import GPT_175B
from repro.parallel import ParallelPlan, plan_for_gpus
from tests.oracles.live_driver import Host, self_check


def test_healthy_node_passes_full_suite():
    assert self_check(Host(0)) is None


def test_loopback_catches_degraded_nic():
    assert self_check(Host(0, nic_factor=0.5)) == "loopback"


def test_all_to_all_catches_dead_gpu():
    assert self_check(Host(0, gpus_healthy=False)) == "nccl-all-to-all"


def test_all_to_all_catches_slow_host():
    assert self_check(Host(0, speed_factor=0.9)) == "nccl-all-to-all"


def test_suite_early_exits_on_failure():
    host = Host(0, nic_factor=0.0)  # fails loopback, the first test, and RNIC-to-RNIC
    assert self_check(host) == "loopback"
    assert self_check(host) == DiagnosticSuite().tests[0][0]


def test_suite_finds_faulty_among_fleet():
    hosts = [Host(i) for i in range(10)]
    hosts[3].gpus_healthy = False
    hosts[7].nic_factor = 0.3
    hosts[8].nic_factor = 0.87  # loopback passes, the ToR all-reduce does not
    faulty = {h.host_id: self_check(h) for h in hosts if self_check(h) is not None}
    assert faulty == {3: "nccl-all-to-all", 7: "loopback", 8: "nccl-all-reduce-tor"}
    assert set(faulty.values()) <= {name for name, _ in DiagnosticSuite().tests}


def test_suite_duration_within_paper_envelope():
    # §6.3: detection + diagnostics < 10 minutes.
    assert DiagnosticSuite().sweep_duration() < 600.0


# -- checkpointing -----------------------------------------------------------


PLAN = ParallelPlan(dp=4, tp=8, pp=8, vpp=6)


def make_planner(**kw):
    return CheckpointPlanner(model=GPT_175B, plan=PLAN, **kw)


def test_stage1_stall_is_seconds():
    # §4.4: on-path stall "can be reduced to several seconds".
    cost = make_planner().save_cost()
    assert 0.1 < cost.stage1_stall < 10.0


def test_two_stage_much_cheaper_than_blocking():
    planner = make_planner()
    two = planner.save_cost(two_stage=True)
    naive = planner.save_cost(two_stage=False)
    assert two.training_interruption < naive.training_interruption / 5


def test_unique_bytes_deduplicate_dp():
    planner = make_planner()
    duplicated = planner.bytes_per_gpu * PLAN.world_size
    assert planner.unique_bytes < duplicated


def test_optimized_recovery_faster():
    planner = make_planner()
    fast = planner.recovery_time(optimized=True)
    slow = planner.recovery_time(optimized=False)
    assert fast < slow


def test_recovery_scales_with_dp_when_naive():
    small = CheckpointPlanner(model=GPT_175B, plan=plan_for_gpus(256, tp=8, pp=8))
    large = CheckpointPlanner(model=GPT_175B, plan=plan_for_gpus(12288, tp=8, pp=8))
    # Naive recovery reads DP-duplicated params: much worse at scale.
    assert large.recovery_time(optimized=False) > 3 * small.recovery_time(optimized=False)
    # Optimized recovery reads unique bytes: roughly scale-independent.
    ratio = large.recovery_time(optimized=True) / small.recovery_time(optimized=True)
    assert ratio < 1.6


def test_recovery_within_15_minutes():
    # §6.3: system catches up within 15 minutes from the latest checkpoint.
    planner = CheckpointPlanner(model=GPT_175B, plan=plan_for_gpus(12288, tp=8, pp=8, vpp=6))
    assert planner.recovery_time(optimized=True) < 900.0


def test_min_checkpoint_interval():
    planner = make_planner()
    assert planner.min_checkpoint_interval() == planner.save_cost().stage2_async


def test_hdfs_bandwidth_caps():
    hdfs = HdfsModel(aggregate_read_bandwidth=10e9, per_client_bandwidth=1e9)
    # Two clients: client-limited (2 GB/s); twenty clients: aggregate-limited.
    assert hdfs.read_time(10e9, 2) == pytest.approx(5.0)
    assert hdfs.read_time(10e9, 20) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        hdfs.read_time(-1, 2)
    with pytest.raises(ValueError):
        HdfsModel(aggregate_read_bandwidth=0)


def test_lost_progress_expectation():
    assert lost_progress(100, 6.0) == pytest.approx(300.0)
    with pytest.raises(ValueError):
        lost_progress(0, 6.0)
