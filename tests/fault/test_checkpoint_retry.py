"""Checkpoint integrity: checksum retries, backoff, and N-1 fallback."""

import numpy as np
import pytest

from repro.fault import (
    CheckpointPlanner,
    FaultEvent,
    ProductionRun,
    ProductionRunConfig,
    RetryPolicy,
    ShardIntegrityModel,
)
from repro.fault.checkpoint import HdfsModel, load_with_retry
from repro.fault.faults import CUDA_ERROR
from repro.model import GPT_175B
from repro.parallel import plan_for_gpus


def make_planner():
    plan = plan_for_gpus(64, tp=2, pp=2)
    return CheckpointPlanner(model=GPT_175B, plan=plan)


# -- model validation ----------------------------------------------------------


def test_integrity_and_policy_validation():
    with pytest.raises(ValueError):
        ShardIntegrityModel(corruption_probability=1.0)
    with pytest.raises(ValueError):
        ShardIntegrityModel(transient_failure_probability=-0.1)
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_multiplier=0.5)
    with pytest.raises(ValueError):
        HdfsModel().read_time(1e9, 4, bandwidth_factor=0.0)


def test_degraded_bandwidth_slows_hdfs():
    hdfs = HdfsModel()
    assert hdfs.read_time(1e12, 16, bandwidth_factor=0.5) == pytest.approx(
        2 * hdfs.read_time(1e12, 16)
    )
    assert hdfs.write_time(1e12, 16, bandwidth_factor=0.25) == pytest.approx(
        4 * hdfs.write_time(1e12, 16)
    )


# -- load retry ---------------------------------------------------------------


def test_clean_load_is_single_attempt():
    planner = make_planner()
    outcome = load_with_retry(
        planner.recovery_time(True),
        np.random.default_rng(0),
        ShardIntegrityModel(),  # zero failure probabilities
    )
    assert outcome.attempts == 1
    assert not outcome.fell_back
    assert outcome.total_time == pytest.approx(
        planner.recovery_time(True) + ShardIntegrityModel().checksum_time
    )


def test_always_corrupt_falls_back_after_bounded_retries():
    planner = make_planner()
    integrity = ShardIntegrityModel(corruption_probability=0.999999)
    policy = RetryPolicy(max_attempts=3, base_backoff=2.0, timeout=1e9)
    outcome = load_with_retry(
        planner.recovery_time(True), np.random.default_rng(0), integrity, policy=policy
    )
    assert outcome.fell_back
    assert outcome.attempts == 3  # bounded, never infinite
    assert outcome.checksum_failures == 3
    # Fallback pays for the wasted attempts plus the N-1 read: strictly
    # more than one clean restore, with backoff 2 + 4 visible in the total.
    clean = planner.recovery_time(True) + integrity.checksum_time
    assert outcome.total_time == pytest.approx(4 * clean + 2.0 + 4.0 + 8.0)


def test_timeout_cuts_retries_short():
    planner = make_planner()
    integrity = ShardIntegrityModel(corruption_probability=0.999999)
    # A timeout shorter than one read: the first failed attempt trips it.
    policy = RetryPolicy(max_attempts=10, base_backoff=1.0, timeout=1.0)
    outcome = load_with_retry(
        planner.recovery_time(True), np.random.default_rng(0), integrity, policy=policy
    )
    assert outcome.fell_back
    assert outcome.attempts == 1


def test_transient_failures_charge_partial_reads():
    planner = make_planner()
    integrity = ShardIntegrityModel(transient_failure_probability=0.999999)
    policy = RetryPolicy(max_attempts=2, base_backoff=3.0, timeout=1e9)
    outcome = load_with_retry(
        planner.recovery_time(True), np.random.default_rng(0), integrity, policy=policy
    )
    assert outcome.fell_back
    assert outcome.transient_failures == 2
    base = planner.recovery_time(True)
    expected = 2 * (integrity.partial_read_fraction * base) + 3.0 + 6.0 + base + integrity.checksum_time
    assert outcome.total_time == pytest.approx(expected)


def test_load_retry_deterministic_given_seed():
    planner = make_planner()
    integrity = ShardIntegrityModel(
        corruption_probability=0.3, transient_failure_probability=0.3
    )
    a = load_with_retry(planner.recovery_time(True), np.random.default_rng(9), integrity)
    b = load_with_retry(planner.recovery_time(True), np.random.default_rng(9), integrity)
    assert a == b


# -- save retry ---------------------------------------------------------------


def test_clean_save_commits_first_attempt():
    planner = make_planner()
    outcome = planner.save_with_retry(np.random.default_rng(0), ShardIntegrityModel())
    assert outcome.committed and outcome.attempts == 1
    assert outcome.stall == pytest.approx(planner.save_cost().stage1_stall)


def test_flaky_save_retries_then_commits_or_gives_up():
    planner = make_planner()
    integrity = ShardIntegrityModel(transient_failure_probability=0.999999)
    policy = RetryPolicy(max_attempts=3, base_backoff=1.0, timeout=1e9)
    outcome = planner.save_with_retry(np.random.default_rng(0), integrity, policy=policy)
    assert not outcome.committed  # previous checkpoint remains the durable one
    assert outcome.attempts == 3


# -- production-run integration: fallback charges extra lost iterations --------


class FixedInjector:
    def __init__(self, events):
        self.events = events

    def sample(self, horizon):
        return [e for e in self.events if e.time < horizon]


def test_fallback_load_charges_extra_interval_in_recovery_log():
    plan = plan_for_gpus(64, tp=2, pp=2)
    planner = CheckpointPlanner(model=GPT_175B, plan=plan)
    event = FaultEvent(time=3600.0, kind=CUDA_ERROR, node_index=0)

    def run_with(integrity):
        run = ProductionRun(
            plan,
            FixedInjector([event]),
            planner=planner,
            rng=np.random.default_rng(2),
            integrity=integrity,
        )
        return run.run(duration=86400.0)

    corrupt = run_with(ShardIntegrityModel(corruption_probability=0.999999))
    clean = run_with(ShardIntegrityModel())

    record = corrupt.log.records[0]
    assert record.fallback_load
    # The N-1 fallback costs one full checkpoint interval of extra rollback.
    assert record.extra_lost_iterations == ProductionRunConfig().checkpoint_interval_iterations
    assert corrupt.log.fallback_loads() == 1
    assert corrupt.log.total_lost_iterations() == record.lost_iterations + record.extra_lost_iterations

    clean_record = clean.log.records[0]
    assert not clean_record.fallback_load and clean_record.extra_lost_iterations == 0
    # The fallback run lost strictly more progress and time.
    assert corrupt.completed_iterations < clean.completed_iterations
    assert record.downtime > clean_record.downtime


def test_fallback_timeline_is_monotone_and_deterministic():
    plan = plan_for_gpus(64, tp=2, pp=2)
    planner = CheckpointPlanner(model=GPT_175B, plan=plan)
    integrity = ShardIntegrityModel(
        corruption_probability=0.4, transient_failure_probability=0.3
    )
    events = [
        FaultEvent(time=t, kind=CUDA_ERROR, node_index=i) for i, t in enumerate((3600.0, 40000.0, 70000.0))
    ]

    def build():
        return ProductionRun(
            plan,
            FixedInjector(events),
            planner=planner,
            rng=np.random.default_rng(4),
            integrity=integrity,
        )

    a = build().run(duration=86400.0 * 2)
    b = build().run(duration=86400.0 * 2)
    for record in a.log.records:
        assert record.fault.time <= record.detected_at <= record.diagnosed_at <= record.resumed_at
    key = lambda r: (r.detected_at, r.resumed_at, r.fallback_load, r.extra_lost_iterations)
    assert [key(r) for r in a.log.records] == [key(r) for r in b.log.records]
