"""Tests for the event-driven ring collective runtime."""

import pytest

from repro.collectives import ring_all_gather, ring_all_reduce
from repro.collectives.runtime import RingCollectiveRuntime
from repro.core.units import Gbps
from repro.network import ClosFabric


@pytest.fixture(scope="module")
def fabric():
    return ClosFabric(n_nodes=128)


def make_runtime(fabric, nodes):
    return RingCollectiveRuntime(fabric, node_of_rank=nodes)


def test_all_gather_matches_alpha_beta_on_clean_fabric(fabric):
    # 4 nodes in one pod: each pair path is a dedicated 200G NIC chain.
    runtime = make_runtime(fabric, [0, 1, 2, 3])
    size = 4e9
    run = runtime.run("all_gather", size)
    analytic = ring_all_gather(size, 4, 200 * Gbps)
    assert run.total_time == pytest.approx(analytic, rel=0.05)
    assert len(run.steps) == 3


def test_all_reduce_is_twice_all_gather(fabric):
    runtime = make_runtime(fabric, [0, 1, 2, 3])
    ag = runtime.run("all_gather", 2e9)
    ar = runtime.run("all_reduce", 2e9)
    assert ar.total_time == pytest.approx(2 * ag.total_time, rel=1e-6)
    assert len(ar.steps) == 6


def test_single_rank_or_empty_tensor_free(fabric):
    runtime = make_runtime(fabric, [5])
    assert runtime.run("all_gather", 1e9).total_time == 0.0
    runtime4 = make_runtime(fabric, [0, 1, 2, 3])
    assert runtime4.run("all_reduce", 0.0).total_time == 0.0


def test_cross_pod_ring_slower_than_intra_pod(fabric):
    intra = make_runtime(fabric, [0, 1, 2, 3]).run("all_gather", 4e9)
    cross = make_runtime(fabric, [0, 1, 64, 65]).run("all_gather", 4e9)
    # Cross-pod hops add latency per step; bandwidth may also be shared.
    assert cross.total_time >= intra.total_time


def test_degraded_link_slows_the_whole_ring(fabric):
    size = 4e9
    clean = make_runtime(fabric, [0, 1, 2, 3]).run("all_gather", size)
    # Degrade node 2's rail-0 uplink to its ToR.
    link = fabric.links[("node2.nic0", "tor0.0")]
    original = link.bandwidth
    try:
        link.bandwidth = original / 4
        degraded = make_runtime(fabric, [0, 1, 2, 3]).run("all_gather", size)
    finally:
        link.bandwidth = original
    assert degraded.total_time > 2 * clean.total_time
    assert degraded.steps[0].slowest_pair == 2  # the pair leaving node 2


def test_unsupported_collective_rejected(fabric):
    runtime = make_runtime(fabric, [0, 1])
    with pytest.raises(ValueError):
        runtime.run("all_to_all", 1e9)
    with pytest.raises(ValueError):
        runtime.run("all_gather", -1.0)
    with pytest.raises(ValueError):
        RingCollectiveRuntime(fabric, node_of_rank=[])


def test_link_taken_down_mid_collective_raises():
    from repro.sim import Process, Simulator

    fabric = ClosFabric(n_nodes=16, nodes_per_pod=8)  # private: it gets degraded
    runtime = make_runtime(fabric, [0, 1, 2, 3])
    clean = runtime.run("all_gather", 4e9)
    sim = Simulator()

    def outage():
        yield sim.timeout(1.5 * clean.steps[0].duration)  # during the second step
        fabric.set_link_state("node2.nic0", "tor0.0", False)

    Process(sim, outage())
    with pytest.raises(RuntimeError, match="down link node2.nic0->tor0.0"):
        runtime.run("all_gather", 4e9, sim=sim)
    fabric.set_link_state("node2.nic0", "tor0.0", True)
    assert runtime.run("all_gather", 4e9).total_time == clean.total_time


def test_run_solves_max_min_once_per_collective(fabric, monkeypatch):
    # The water-fill is patched where the shared ring router calls it.
    from repro.collectives import fabric as fabric_module

    solved = []
    real = fabric_module._waterfill

    def counting(demand, *edges):
        solved.append(len(demand))
        return real(demand, *edges)

    monkeypatch.setattr(fabric_module, "_waterfill", counting)
    run = make_runtime(fabric, [0, 1, 2, 3]).run("all_reduce", 2e9)
    assert len(run.steps) == 6
    assert solved == [4]  # one solve of the four ring flows serves every step
