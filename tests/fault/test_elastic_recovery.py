"""Elastic degraded-mode recovery: spare exhaustion shrinks DP, never stalls."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fault import (
    CheckpointPlanner,
    FaultEvent,
    ProductionRun,
    ProductionRunConfig,
)
from repro.fault.domains import (
    RACK_POWER_FAULT,
    TOR_SWITCH_FAULT,
    CorrelatedFaultInjector,
    DomainTopology,
)
from repro.fault.elastic import shrunk_dp
from repro.fault.faults import CUDA_ERROR
from repro.model import GPT_175B
from repro.parallel import ParallelPlan, plan_for_gpus
from tests.oracles.elastic import shrink_dp_plans, shrunk_dp_reference
from tests.oracles.live_driver import run_scenario


class FixedInjector:
    """Deterministic stand-in: replays a scripted event list."""

    def __init__(self, events):
        self.events = events

    def sample(self, horizon):
        return [e for e in self.events if e.time < horizon]


def rack_event(time=3600.0, nodes=(0, 1, 2, 3)):
    return FaultEvent(
        time=time,
        kind=RACK_POWER_FAULT,
        node_index=nodes[0],
        node_indices=tuple(nodes),
        domain="rack0",
    )


# -- the shrink rule ------------------------------------------------------------


def test_shrink_dp_plans_keeps_model_parallel_layout():
    plan = plan_for_gpus(64, tp=2, pp=2)
    candidates = shrink_dp_plans(plan, 40)
    assert [c.dp for c in candidates] == list(range(10, 0, -1))
    assert all(c.tp == 2 and c.pp == 2 for c in candidates)
    assert shrink_dp_plans(plan, 3) == []  # below one model-parallel replica
    with pytest.raises(ValueError):
        shrink_dp_plans(plan, 0)


def test_shrunk_dp_prefers_largest_feasible_dp():
    plan = plan_for_gpus(64, tp=2, pp=2)  # dp=16
    assert shrunk_dp(plan, 40) == 10
    assert shrunk_dp(plan, 43) == 10  # a partial replica is idle
    # On 8-GPU hosts a replica is 4 GPUs, so only even DP fills whole hosts.
    assert shrunk_dp(plan, 40, gpus_per_node=8) == 10
    assert shrunk_dp(plan, 36, gpus_per_node=8) == 8
    # A production run turns the rule into one decision: 3 of 8 hosts lost.
    decision = make_run().resolve_incident(rack_event(nodes=(0, 1, 2)), spares_left=0).replan
    assert decision.new_plan.dp == 10 and decision.available_gpus == 40


def test_shrunk_dp_keeps_dp_when_nothing_is_lost_and_is_zero_below_one_replica():
    plan = plan_for_gpus(64, tp=2, pp=2)
    assert shrunk_dp(plan, 64) == shrunk_dp(plan, 64, gpus_per_node=8) == 16
    assert shrunk_dp(plan, 1000) == 16  # never grows past the healthy plan
    assert shrunk_dp(plan, 3) == shrunk_dp(plan, 0) == shrunk_dp(plan, -8) == 0
    # tp*pp = 12 on 8-GPU hosts: one replica alone never fills whole hosts.
    assert shrunk_dp(ParallelPlan(dp=4, tp=4, pp=3), 23, gpus_per_node=8) == 0


@st.composite
def shrink_cases(draw):
    plan = ParallelPlan(
        dp=draw(st.integers(1, 24)), tp=draw(st.integers(1, 8)), pp=draw(st.integers(1, 8))
    )
    hosts = [g for g in range(1, 17) if plan.world_size % g == 0]
    gpus_per_node = draw(st.sampled_from(hosts))
    gpus = draw(st.integers(0, plan.world_size + 2 * plan.tp * plan.pp))
    return plan, gpus, gpus_per_node


@settings(max_examples=300, deadline=None)
@given(case=shrink_cases())
def test_shrunk_dp_matches_the_shrink_enumeration(case):
    plan, gpus, gpus_per_node = case
    assert shrunk_dp(plan, gpus, gpus_per_node) == shrunk_dp_reference(
        plan, gpus, gpus_per_node
    )


# -- the acceptance scenario: zero spares + rack fault ------------------------


def make_run(n_spares=0, events=None, seed=11):
    plan = plan_for_gpus(64, tp=2, pp=2)  # 8 nodes x 8 GPUs, dp=16
    injector = FixedInjector(events if events is not None else [rack_event()])
    return ProductionRun(
        plan,
        injector,
        planner=CheckpointPlanner(model=GPT_175B, plan=plan),
        rng=np.random.default_rng(seed),
        spares=n_spares,
    )


def test_zero_spares_rack_fault_replans_and_reports_degraded_rate():
    duration = 14 * 86400.0
    degraded = make_run(n_spares=0).run(duration)
    healthy = make_run(n_spares=0, events=[]).run(duration)

    # Completed without stalling, on a smaller DP degree.
    assert degraded.wall_time == duration
    assert degraded.final_dp == 8  # 4 of 8 nodes lost, tp*pp=4 -> dp 16 -> 8
    record = degraded.log.records[0]
    assert record.replanned_dp == 8
    assert record.nodes_lost == 4 and record.spares_consumed == 0

    # A degraded interval is logged, open until the run's end.
    assert len(degraded.log.degraded) == 1
    interval = degraded.log.degraded[0]
    assert interval.throughput_factor == pytest.approx(0.5)
    assert interval.end == pytest.approx(duration)

    # Effective rate strictly between zero and the healthy run's rate.
    rate = degraded.effective_rate(6.34)
    healthy_rate = healthy.effective_rate(6.34)
    assert 0.0 < rate < healthy_rate
    # Roughly half throughput after the fault: well below 90% here.
    assert rate < 0.75 * healthy_rate


def test_spares_absorb_rack_fault_without_shrinking():
    result = make_run(n_spares=8).run(7 * 86400.0)
    record = result.log.records[0]
    assert record.spares_consumed == 4
    assert record.replanned_dp is None
    assert result.final_dp == 16
    assert not result.log.degraded


def test_partial_spares_replace_some_and_shrink_for_the_rest():
    result = make_run(n_spares=2).run(7 * 86400.0)
    record = result.log.records[0]
    assert record.spares_consumed == 2
    # 2 nodes unreplaced -> 48 GPUs -> dp 12.
    assert record.replanned_dp == 12
    assert result.final_dp == 12
    assert result.log.degraded[0].throughput_factor == pytest.approx(12 / 16)


def test_successive_rack_faults_shrink_monotonically():
    # Second hit is a half-rack: losing all 8 nodes would leave nothing.
    events = [rack_event(3600.0, (0, 1, 2, 3)), rack_event(200000.0, (4, 5))]
    result = make_run(n_spares=0, events=events).run(14 * 86400.0)
    dps = [r.replanned_dp for r in result.log.records]
    assert dps == [8, 4]
    assert [i.dp for i in result.log.degraded] == [8, 4]
    # The first interval closed exactly when the second opened.
    assert result.log.degraded[0].end == pytest.approx(result.log.degraded[1].start)
    assert result.final_dp == 4


def test_hosts_a_provisioning_stall_brings_in_stay_in_the_run():
    """Two hosts, no spares: a rack fault on both stalls for fresh
    machines, and a later one-host crash shrinks onto them instead of
    stalling again."""
    plan = ParallelPlan(dp=2, tp=8, pp=1)
    events = [
        rack_event(1000.0, (0, 1)),
        FaultEvent(time=50_000.0, kind=CUDA_ERROR, node_index=0),
    ]
    run = ProductionRun(
        plan,
        FixedInjector(events),
        planner=CheckpointPlanner(model=GPT_175B, plan=plan),
        rng=np.random.default_rng(11),
        spares=0,
    )
    stall, crash = run.run(86400.0).log.records
    provisioning = ProductionRunConfig().spare_provisioning_time
    assert stall.replanned_dp is None and stall.downtime > provisioning
    assert crash.replanned_dp == 1 and crash.downtime < provisioning


def test_log_effective_rate_tracks_measured_rate():
    duration = 14 * 86400.0
    result = make_run(n_spares=0).run(duration)
    measured = result.effective_rate(6.34)
    accounted = result.log.effective_training_rate(6.34, duration)
    assert 0.0 < accounted < 1.0
    assert measured == pytest.approx(accounted, rel=0.05)


def test_degraded_run_is_deterministic():
    n_nodes = 32
    plan = plan_for_gpus(n_nodes * 8, tp=4, pp=2)

    def build():
        injector = CorrelatedFaultInjector(
            n_nodes=n_nodes,
            topology=DomainTopology(n_nodes=n_nodes, nodes_per_rack=4, nodes_per_pod=16),
            rng=np.random.default_rng(5),
            rate_multiplier=40.0,
        )
        return ProductionRun(
            plan,
            injector,
            planner=CheckpointPlanner(model=GPT_175B, plan=plan),
            rng=np.random.default_rng(5),
            spares=2,
        )

    a = build().run(7 * 86400.0)
    b = build().run(7 * 86400.0)
    key = lambda r: (r.fault.time, r.detected_at, r.diagnosed_at, r.resumed_at, r.replanned_dp)
    assert [key(r) for r in a.log.records] == [key(r) for r in b.log.records]
    assert a.final_dp == b.final_dp
    assert a.effective_iterations == b.effective_iterations


# -- the live driver oracle -----------------------------------------------------


def test_live_driver_sheds_nodes_when_spares_run_out():
    driver, victims, _, evicted = run_scenario([CUDA_ERROR] * 3, n_nodes=4, n_spares=1)
    assert set(evicted) == set(victims)
    # One replaced from the pool, two shed.
    assert len(driver.shed) == 2
    assert set(driver.shed) <= set(victims)
    assert len(driver.daemons) == 2


def test_run_correlated_scenarios_complete():
    # Rack PSU, ToR switch and a crash wider than the pool, one spare each.
    for kinds in ([RACK_POWER_FAULT] * 2, [TOR_SWITCH_FAULT] * 2, [CUDA_ERROR] * 3):
        driver, victims, _, evicted = run_scenario(kinds, n_spares=1)
        # Every injected fault was handled one way or the other.
        assert set(evicted) == set(victims)
        assert len(driver.shed) == len(victims) - 1
