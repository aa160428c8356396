"""Tests for checkpoint-interval planning and the live oracle's war stories."""

import numpy as np
import pytest

from repro.fault import CheckpointPlanner, FaultInjector
from repro.fault.interval import (
    IntervalPlan,
    expected_overhead_fraction,
    plan_interval,
    young_daly_interval,
)
from repro.fault.faults import CUDA_ERROR, NCCL_HANG, NIC_DEGRADED, SLOW_HOST
from repro.model import GPT_175B
from repro.parallel import plan_for_gpus
from tests.oracles.live_driver import run_scenario


# -- interval planning ------------------------------------------------------


def test_young_daly_closed_form():
    assert young_daly_interval(2.0, 10_000.0) == pytest.approx((2 * 2 * 10_000) ** 0.5)
    with pytest.raises(ValueError):
        young_daly_interval(0, 100)
    with pytest.raises(ValueError):
        young_daly_interval(1, 0)


def test_young_daly_is_near_optimal_numerically():
    cost, mtbf, recovery = 3.0, 20_000.0, 300.0
    star = young_daly_interval(cost, mtbf)
    best = expected_overhead_fraction(star, cost, mtbf, recovery)
    for factor in (0.25, 0.5, 2.0, 4.0):
        other = expected_overhead_fraction(star * factor, cost, mtbf, recovery)
        assert best <= other + 1e-9


def test_overhead_fraction_validation():
    with pytest.raises(ValueError):
        expected_overhead_fraction(0, 1, 100)
    with pytest.raises(ValueError):
        expected_overhead_fraction(10, 1, -5)


def test_plan_interval_for_paper_deployment():
    plan = plan_for_gpus(12288, tp=8, pp=8, vpp=6)
    planner = CheckpointPlanner(model=GPT_175B, plan=plan)
    injector = FaultInjector(n_nodes=1536, rng=np.random.default_rng(0))
    chosen = plan_interval(planner, injector, iteration_time=6.34)
    assert isinstance(chosen, IntervalPlan)
    # The cadence is minutes — frequent enough that catch-up stays small,
    # rare enough that stall overhead is negligible (paper's goal).
    assert 60 < chosen.interval_seconds < 3 * 3600
    assert chosen.interval_iterations >= 1
    assert chosen.overhead_fraction < 0.08  # consistent with >90% effective time
    # Interval respects the async-drain lower bound.
    assert chosen.interval_seconds >= planner.min_checkpoint_interval()


def test_plan_interval_validation():
    plan = plan_for_gpus(256, tp=8, pp=8)
    planner = CheckpointPlanner(model=GPT_175B, plan=plan)
    injector = FaultInjector(n_nodes=32)
    with pytest.raises(ValueError):
        plan_interval(planner, injector, iteration_time=0)


# -- scenarios (§5, §6.3 war stories on the live oracle) ----------------------

SCENARIOS = {
    "cuda-crash": [CUDA_ERROR],
    "nccl-hang": [NCCL_HANG],
    "gray-nic": [NIC_DEGRADED],
    "slow-host": [SLOW_HOST],
    "double-fault": [CUDA_ERROR, NCCL_HANG],
}


def test_crash_scenario_auto_detected_and_evicted():
    _, (victim,), detected, evicted = run_scenario(SCENARIOS["cuda-crash"])
    assert detected == {victim: "explicit-error"}
    assert victim in evicted


def test_hang_scenario_detected_via_traffic():
    _, (victim,), detected, evicted = run_scenario(SCENARIOS["nccl-hang"])
    assert detected.get(victim) == "traffic-ceased"
    assert victim in evicted


def test_gray_failure_not_auto_detected():
    # The paper's motivation for §5: heartbeats alone miss gray failures.
    _, (victim,), detected, evicted = run_scenario(SCENARIOS["gray-nic"])
    assert detected == {} and evicted == []


def test_straggler_invisible_to_heartbeats():
    driver, (victim,), detected, evicted = run_scenario(SCENARIOS["slow-host"])
    # Mild slowdown trips no heartbeat rule, so no recovery runs...
    assert detected == {} and evicted == []
    # ...though the diagnostic battery would have caught the host.
    assert driver.recover() == [victim]


def test_multi_fault_scenario_evicts_both():
    _, victims, _, evicted = run_scenario(SCENARIOS["double-fault"])
    assert len(victims) == 2
    assert sorted(evicted) == sorted(victims)


def test_run_all_scenarios():
    # Heartbeats catch exactly the auto-detectable victims of every story.
    for name, kinds in SCENARIOS.items():
        _, victims, detected, _ = run_scenario(kinds, n_spares=6)
        auto = {v for v, kind in zip(victims, kinds) if kind.auto_detectable}
        assert set(detected) == auto, name
