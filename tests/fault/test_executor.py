"""Direct tests for the live oracle's per-node daemon (the executor's
heartbeat of §4.1)."""

import pytest

from repro.fault.faults import CUDA_ERROR, NCCL_HANG, SLOW_HOST
from tests.oracles.live_driver import HEALTHY_RDMA_RATE, LiveDriver


def make_executor(interval=10.0):
    driver = LiveDriver(1, heartbeat_interval=interval)
    (host_id, daemon), = driver.daemons.items()
    return driver.sim, daemon.host, driver.histories[host_id], driver, daemon


def test_healthy_executor_beats_on_schedule():
    sim, host, beats, driver, daemon = make_executor(interval=5.0)
    sim.run(until=26.0)
    assert [b.time for b in beats] == [5.0, 10.0, 15.0, 20.0, 25.0]
    assert all(b.status == "running" for b in beats)
    assert all(b.rdma_rate == pytest.approx(HEALTHY_RDMA_RATE) for b in beats)


def test_explicit_fault_reports_error_and_logs():
    sim, host, beats, driver, daemon = make_executor()
    sim.run(until=15.0)
    driver.inject(host.host_id, CUDA_ERROR)
    sim.run(until=25.0)
    assert beats[-1].status == "error"
    assert "cuda-error" in beats[-1].log
    assert beats[-1].rdma_rate == 0.0
    assert not host.healthy  # fault applied to the host


def test_hang_keeps_status_running_but_zero_traffic():
    sim, host, beats, driver, daemon = make_executor()
    driver.inject(host.host_id, NCCL_HANG)
    sim.run(until=12.0)
    assert beats[-1].status == "running"
    assert beats[-1].rdma_rate == 0.0


def test_silent_fault_looks_almost_healthy():
    sim, host, beats, driver, daemon = make_executor()
    driver.inject(host.host_id, SLOW_HOST)
    sim.run(until=12.0)
    assert beats[-1].status == "running"
    # Traffic only mildly depressed: the signature heartbeats can't catch.
    assert beats[-1].rdma_rate == pytest.approx(HEALTHY_RDMA_RATE * 0.9)


def test_clear_fault_restores_healthy_beats():
    sim, host, beats, driver, daemon = make_executor()
    driver.inject(host.host_id, NCCL_HANG)
    sim.run(until=12.0)
    daemon.fault = None
    sim.run(until=22.0)
    assert beats[-1].rdma_rate > 0


def test_stop_halts_heartbeats():
    sim, host, beats, driver, daemon = make_executor()
    sim.run(until=12.0)
    daemon.stopped = True
    sim.run(until=60.0)
    assert [b.time for b in beats] == [10.0]
