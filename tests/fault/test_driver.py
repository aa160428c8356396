"""Tests for the live driver oracle and the production-run simulation."""

from dataclasses import replace

import numpy as np
import pytest

from repro.fault import (
    CheckpointPlanner,
    FaultEvent,
    FaultInjector,
    ProductionRun,
    ProductionRunConfig,
    catch_up_time,
    default_loss_curve,
)
from repro.fault.checkpoint import HdfsModel
from repro.fault.faults import CUDA_ERROR, NCCL_HANG
from repro.hardware.nic import NicSpec
from repro.hardware.node import NodeSpec
from repro.model import GPT_175B
from repro.parallel import plan_for_gpus
from tests.oracles.live_driver import LiveDriver


def make_driver(n_nodes=4, n_spares=2):
    driver = LiveDriver(n_nodes, n_spares)
    return driver.sim, driver


def test_driver_receives_heartbeats():
    sim, driver = make_driver()
    sim.run(until=35.0)
    for history in driver.histories.values():
        assert history


def test_driver_detects_explicit_fault_and_recovers():
    sim, driver = make_driver()
    sim.run(until=25.0)
    victim = 1
    driver.inject(victim, CUDA_ERROR)
    sim.run(until=60.0)
    assert victim in driver.check()
    evicted = driver.recover()
    assert victim in evicted
    assert len(driver.spares) == 1  # replenished from spares
    assert len(driver.daemons) == 4


def test_driver_detects_hang_via_traffic():
    sim, driver = make_driver()
    sim.run(until=45.0)
    victim = 0
    driver.inject(victim, NCCL_HANG)
    sim.run(until=120.0)
    assert driver.check().get(victim) == "traffic-ceased"


def test_driver_healthy_cluster_reports_nothing():
    sim, driver = make_driver()
    sim.run(until=60.0)
    assert driver.check() == {}
    assert driver.flags == {}


# -- production run (Figure 11) ------------------------------------------------


@pytest.fixture(scope="module")
def production_result():
    plan = plan_for_gpus(12288, tp=8, pp=8, vpp=6)
    injector = FaultInjector(n_nodes=1536, rng=np.random.default_rng(7))
    planner = CheckpointPlanner(model=GPT_175B, plan=plan)
    run = ProductionRun(plan, injector, planner=planner, rng=np.random.default_rng(7))
    return run.run(duration=4 * 7 * 86400.0), run.config


def test_production_run_over_100_restarts(production_result):
    result, _ = production_result
    # Figure 11: "repairs and recovers the training process for over 100
    # times" over several weeks.
    assert result.restarts > 100


def test_production_run_effective_rate_above_90(production_result):
    result, config = production_result
    assert result.effective_rate(config.iteration_time) > 0.90


def test_production_run_auto_fraction_above_90(production_result):
    result, _ = production_result
    assert result.log.auto_fraction() > 0.90


def test_production_run_detect_diagnose_under_10min(production_result):
    result, _ = production_result
    auto = [r for r in result.log.records if r.auto]
    mean = sum(r.detected_at - r.fault.time + r.diagnosis_time for r in auto) / len(auto)
    assert mean < 600.0


def test_production_run_loss_monotone_overall(production_result):
    result, _ = production_result
    losses = [loss for _, loss, _ in result.loss_points]
    # Restarts roll back a little, but the envelope converges.
    assert losses[-1] < losses[0]
    assert losses[-1] < min(losses[: len(losses) // 4])


def test_catch_up_within_15_minutes():
    assert catch_up_time(ProductionRunConfig()) < 900.0


def test_loss_curve_decreasing():
    assert default_loss_curve(1e12) < default_loss_curve(1e9) < default_loss_curve(0.0)


def test_production_run_validation():
    plan = plan_for_gpus(256, tp=8, pp=8)
    run = ProductionRun(plan, FaultInjector(n_nodes=32))
    with pytest.raises(ValueError):
        run.run(0.0)


@pytest.mark.parametrize(
    "change, optimized",
    [
        ({"hdfs": HdfsModel(aggregate_read_bandwidth=30e9)}, True),
        ({"node": NodeSpec(nic_spec=NicSpec("slow-rnic", 12.5e9))}, True),
        ({}, False),
    ],
    ids=["hdfs", "node", "optimized"],
)
def test_restart_price_keys_on_everything_the_load_reads(change, optimized):
    """Two runs in one process whose restores differ in one input each
    pay their own clean load, not the first run's memoized price."""
    plan = plan_for_gpus(256, tp=8, pp=8)
    base = CheckpointPlanner(model=GPT_175B, plan=plan)
    other = replace(base, **change)
    event = FaultEvent(time=1.0, kind=CUDA_ERROR, node_index=0)
    downtimes = []
    for planner, config in (
        (base, ProductionRunConfig()),
        (other, ProductionRunConfig(checkpoint_load_optimized=optimized)),
    ):
        run = ProductionRun(plan, FaultInjector(n_nodes=32), config=config, planner=planner)
        downtimes.append(run.resolve_incident(event).downtime)
    expected = other.recovery_time(optimized) - base.recovery_time(True)
    assert expected != 0.0
    assert downtimes[1] - downtimes[0] == pytest.approx(expected)
