"""Concurrent spare contention, preemption, and goodput accounting.

The controlled tests drive :class:`ClusterScheduler` with scripted fault
timelines (one correlated incident at a known time hitting known racks),
so the arbitration outcome is fully predictable; the scenario tests
re-run the seeded chaos gate end to end.
"""

import numpy as np
import pytest

from repro.fault.domains import RACK_POWER_FAULT, DomainTopology
from repro.fault.faults import FaultEvent
from repro.observability.telemetry import SUBSYSTEM_LANES, TelemetryHub
from repro.parallel.plan import ParallelPlan, plan_for_gpus
from repro.scheduler import (
    ClusterScheduler,
    JobSpec,
    JobState,
    run_policy,
)
from tests.oracles.gates import _fingerprint, multi_tenant_chaos


class ScriptedInjector:
    """Replays a fixed event list (duck-types FaultInjector.sample)."""

    def __init__(self, events):
        self.events = list(events)

    def sample(self, horizon):
        return [e for e in self.events if e.time < horizon]


def rack_fault(t, nodes, rack):
    return FaultEvent(
        time=t,
        kind=RACK_POWER_FAULT,
        node_index=nodes[0],
        node_indices=tuple(nodes),
        domain=f"rack{rack}",
    )


def make_scheduler(policy="priority", n_spares=1, seed=0, hub=None):
    """Two tp=8 tenants filling 12 nodes; rack 1 (4-7) straddles both."""
    topology = DomainTopology(n_nodes=12, nodes_per_rack=4, nodes_per_pod=8)
    jobs = (
        JobSpec(name="prod", plan=plan_for_gpus(48, tp=8, pp=1),
                priority=10, weight=2.0, preemptible=False),
        JobSpec(name="research", plan=plan_for_gpus(48, tp=8, pp=1),
                priority=1, weight=1.0),
    )
    return ClusterScheduler(
        topology=topology,
        jobs=jobs,
        spares=n_spares,
        policy=policy,
        rng=np.random.default_rng(seed),
        hub=hub,
    )


def test_placement_is_topology_aligned():
    scheduler = make_scheduler()
    assert scheduler.placement.nodes_of("prod") == [0, 1, 2, 3, 4, 5]
    assert scheduler.placement.nodes_of("research") == [6, 7, 8, 9, 10, 11]


def test_last_spare_contention_priority_wins_and_loser_shrinks():
    """One rack-PSU incident injures both tenants; one spare remains.

    The high-priority job must win the spare deterministically and the
    loser must shrink DP instead of stalling.
    """
    scheduler = make_scheduler(policy="priority", n_spares=1)
    report = scheduler.run(
        ScriptedInjector([rack_fault(1000.0, [4, 5, 6, 7], rack=1)]),
        duration=40_000.0,
    )
    grants = {
        d.job: dict(d.detail) for d in report.decisions if d.action == "grant"
    }
    assert list(grants) == ["prod"], "the high-priority claimant wins the spare"
    assert grants["prod"]["granted"] == 1
    # Both jobs were short; both shrank, neither stalled.
    shrunk = {d.job: dict(d.detail)["dp"] for d in report.actions("shrink")}
    assert shrunk["prod"] == 5 and shrunk["research"] == 4
    assert not report.actions("stall")
    # spares accounting is consistent across jobs and with the cluster.
    assert report.spares_consumed_by == {"prod": 1}
    assert report.per_job["prod"].spares_consumed == 1
    assert report.per_job["research"].spares_consumed == 0
    assert scheduler.pool.consistent()
    # The loser never stalls; both regrow to full DP once the broken
    # hosts come back from background repair.
    assert report.per_job["research"].stall_seconds == 0.0
    assert report.actions("regrow")
    assert scheduler.jobs["prod"].plan.dp == 6
    assert scheduler.jobs["research"].plan.dp == 6
    assert scheduler.jobs["prod"].state is JobState.RUNNING
    assert scheduler.jobs["research"].state is JobState.RUNNING


def test_fifo_baseline_stalls_the_losers():
    scheduler = make_scheduler(policy="fifo", n_spares=1)
    report = scheduler.run(
        ScriptedInjector([rack_fault(1000.0, [4, 5, 6, 7], rack=1)]),
        duration=40_000.0,
    )
    stalled = {d.job for d in report.actions("stall")}
    assert stalled == {"prod", "research"}  # both short, both block
    assert not report.actions("shrink")
    # Bounded: provisioning brings every stalled job back.
    assert report.actions("provisioned")
    assert scheduler.jobs["prod"].state is JobState.RUNNING
    assert scheduler.jobs["research"].state is JobState.RUNNING


def test_preemption_rescues_a_stalling_high_priority_job():
    """Losing most of its hosts pushes prod below the DP floor: it must
    reclaim capacity from the lower-priority tenant, which sheds nodes
    gracefully (shrinks) rather than dying."""
    scheduler = make_scheduler(policy="priority", n_spares=1)
    report = scheduler.run(
        ScriptedInjector([
            rack_fault(1000.0, [4, 5, 6, 7], rack=1),
            rack_fault(1100.0, [0, 1, 2, 3], rack=0),
        ]),
        duration=40_000.0,
    )
    preempts = report.actions("preempt")
    assert preempts and all(d.job == "research" for d in preempts)
    assert dict(preempts[0].detail)["by"] == "prod"
    assert report.per_job["research"].preemptions == 1
    # The victim keeps training at its floor instead of stalling.
    assert scheduler.jobs["research"].plan.dp >= 1
    assert not report.actions("stall")
    assert scheduler.jobs["prod"].plan.dp >= 4
    assert scheduler.pool.consistent()


def test_winner_is_deterministic_per_seed():
    for seed in (0, 1):
        first, _ = run_policy(seed, "priority", days=1.0)
        second, _ = run_policy(seed, "priority", days=1.0)
        assert _fingerprint(first) == _fingerprint(second)
        winners = [d.job for d in first.actions("grant")]
        winners_again = [d.job for d in second.actions("grant")]
        assert winners == winners_again


def test_goodput_timeline_is_monotone_and_bounded():
    report, _ = run_policy(0, "priority", days=1.0)
    total_weight = sum(j.weight for j in report.per_job.values())
    cursor = 0.0
    for segment in report.segments:
        assert segment.end > segment.start >= cursor - 1e-9
        assert 0.0 <= segment.goodput <= total_weight + 1e-9
        cursor = segment.end
    assert report.segments[-1].end == pytest.approx(report.duration)
    assert 0.0 < report.mean_goodput <= total_weight


def test_scheduler_emits_its_own_telemetry_lane():
    assert SUBSYSTEM_LANES["scheduler"] == 7
    hub = TelemetryHub(job_name="sched-test")
    scheduler = make_scheduler(policy="priority", hub=hub)
    scheduler.run(
        ScriptedInjector([rack_fault(1000.0, [4, 5, 6, 7], rack=1)]),
        duration=40_000.0,
    )
    assert "scheduler" in hub.subsystems()
    actions = {i.name for i in hub.instants if i.subsystem == "scheduler"}
    assert {"place", "claim", "grant", "deny", "shrink"} <= actions


def test_multi_tenant_chaos_gate_single_seed():
    (summary,) = multi_tenant_chaos(seeds=(0,), days=2.0)
    assert summary["goodput_priority"] > summary["goodput_fifo"]
    assert summary["spares_consumed"] >= 1


def test_shrink_lands_on_whole_hosts_when_tp_pp_is_not_a_host_multiple():
    """tp*pp = 12 on 8-GPU hosts: only even DP degrees fill whole hosts.

    Losing one of six hosts leaves 40 GPUs, three replicas' worth, but
    three replicas need 4.5 hosts; the job must shrink to dp=2 (three
    hosts), then regrow onto the two free hosts.
    """
    job = JobSpec(name="odd", plan=ParallelPlan(dp=4, tp=4, pp=3), preemptible=False)
    scheduler = ClusterScheduler(
        topology=DomainTopology(n_nodes=8, nodes_per_rack=4, nodes_per_pod=8),
        jobs=(job,),
        rng=np.random.default_rng(0),
    )
    assert scheduler.placement.nodes_of("odd") == [0, 1, 2, 3, 4, 5]
    report = scheduler.run(
        ScriptedInjector([rack_fault(1000.0, [5], rack=1)]), duration=40_000.0
    )
    assert [dict(d.detail)["dp"] for d in report.actions("shrink")] == [2]
    resized = report.actions("shrink") + report.actions("regrow")
    assert resized and all(
        dict(d.detail)["dp"] * 12 % job.gpus_per_node == 0 for d in resized
    )
    assert scheduler.jobs["odd"].plan.dp == 4


def test_job_pending_at_admission_is_placed_degraded_on_retry():
    """A job that does not fit at admission is re-placed on its first retry.

    8 nodes, no spares, no faults: the pinned job holds 4 nodes, so the
    8-node job is denied at t=0, then ``_try_replace`` places it on the
    4 free nodes at half its DP and the next retry finds no more room.
    """
    topology = DomainTopology(n_nodes=8, nodes_per_rack=4, nodes_per_pod=8)
    jobs = (
        JobSpec(name="pinned", plan=plan_for_gpus(32, tp=8, pp=1), preemptible=False),
        JobSpec(name="wide", plan=plan_for_gpus(64, tp=8, pp=1)),
    )
    scheduler = ClusterScheduler(
        topology=topology,
        jobs=jobs,
        rng=np.random.default_rng(0),
    )
    report = scheduler.run(ScriptedInjector([]), duration=86400.0)
    wide = [(d.time, d.action, dict(d.detail)) for d in report.decisions if d.job == "wide"]
    assert wide[0] == (0.0, "deny", {"needed": 8, "reason": "no-capacity"})
    assert wide[1] == (300.0, "place", {"dp": 4, "healthy_dp": 8, "nodes": 4})
    assert wide[2][1:] == ("resume", {"dp": 4})
    assert wide[3][:2] == (600.0, "deny")
    assert wide[3][2]["reason"] == "retry-backoff" and wide[3][2]["attempt"] == 1
    summary = report.per_job["wide"]
    assert (summary.final_state, summary.final_dp, summary.healthy_dp) == ("degraded", 4, 8)
