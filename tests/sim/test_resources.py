"""Unit tests for Resource."""

import pytest

from repro.sim import Process, Resource, SimulationError, Simulator


def test_resource_capacity_enforced():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    done = []

    def worker(i):
        yield res.acquire()
        yield sim.timeout(10.0)
        res.release()
        done.append((i, sim.now))

    for i in range(4):
        Process(sim, worker(i))
    sim.run()
    # Two run in [0,10], two in [10,20].
    assert done == [(0, 10.0), (1, 10.0), (2, 20.0), (3, 20.0)]


def test_resource_fifo_order():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def worker(i):
        yield res.acquire()
        yield sim.timeout(1.0)
        order.append(i)
        res.release()

    for i in range(5):
        Process(sim, worker(i))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_resource_release_idle_raises():
    sim = Simulator()
    res = Resource(sim)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_invalid_capacity():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)
