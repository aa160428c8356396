"""Tests for ZeRO sharding math."""

import pytest

from repro.model import GPT_175B
from repro.parallel import (
    ParallelPlan,
    dp_comm_events,
    optimizer_state_bytes,
    optimizer_step_time,
)
from repro.parallel.zero import chunk_grad_bytes, chunk_param_bytes


PLAN = ParallelPlan(dp=4, tp=8, pp=8, vpp=6)


def test_zero2_events_one_pair_per_chunk():
    events = dp_comm_events(GPT_175B, PLAN)
    assert len(events) == 2 * PLAN.vpp
    kinds = {e.kind for e in events}
    assert kinds == {"all_gather", "reduce_scatter"}
    for chunk in range(PLAN.vpp):
        chunk_events = [e for e in events if e.chunk == chunk]
        assert {e.kind for e in chunk_events} == {"all_gather", "reduce_scatter"}


def test_zero0_uses_allreduce():
    plan = PLAN.with_options(zero_stage=0)
    events = dp_comm_events(GPT_175B, plan)
    assert all(e.kind == "all_reduce" for e in events)


def test_dp1_has_no_dp_comm():
    plan = ParallelPlan(dp=1, tp=8, pp=8, vpp=6)
    assert dp_comm_events(GPT_175B, plan) == []


def test_chunk_bytes_sum_to_per_gpu_state():
    per_chunk = chunk_param_bytes(GPT_175B, PLAN)
    total = per_chunk * PLAN.vpp
    assert total == pytest.approx(GPT_175B.n_params / (8 * 8) * 2)
    assert chunk_grad_bytes(GPT_175B, PLAN) == pytest.approx(per_chunk)


def test_optimizer_state_sharded_by_dp():
    sharded = optimizer_state_bytes(GPT_175B, PLAN)
    unsharded = optimizer_state_bytes(GPT_175B, PLAN.with_options(zero_stage=0))
    assert sharded == pytest.approx(unsharded / PLAN.dp)


def test_optimizer_step_time_positive_and_sharded():
    fast = optimizer_step_time(GPT_175B, PLAN, memory_bandwidth=2e12)
    slow = optimizer_step_time(GPT_175B, PLAN.with_options(zero_stage=0), 2e12)
    assert 0 < fast < slow
