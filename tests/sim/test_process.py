"""Unit tests for generator processes and composite conditions."""

import pytest

from repro.sim import AllOf, Process, SimulationError, Simulator


def value_of(sim, event):
    """What ``yield event`` evaluates to, read by a parent process."""
    box = []

    def parent():
        box.append((yield event))

    Process(sim, parent())
    sim.run()
    return box[0]


def test_process_runs_and_returns_value():
    sim = Simulator()

    def body():
        yield sim.timeout(1.0)
        yield sim.timeout(2.0)
        return "done"

    proc = Process(sim, body())
    sim.run()
    assert proc.triggered
    assert value_of(sim, proc) == "done"
    assert sim.now == 3.0


def test_timeout_yield_returns_its_value():
    sim = Simulator()
    got = []

    def body():
        value = yield sim.timeout(1.0, value="payload")
        got.append(value)

    Process(sim, body())
    sim.run()
    assert got == ["payload"]


def test_process_waits_on_event():
    sim = Simulator()
    gate = sim.event("gate")
    log = []

    def waiter():
        value = yield gate
        log.append((sim.now, value))

    def opener():
        yield sim.timeout(5.0)
        gate.succeed("open")

    Process(sim, waiter())
    Process(sim, opener())
    sim.run()
    assert log == [(5.0, "open")]


def test_process_waits_on_child_process():
    sim = Simulator()

    def child():
        yield sim.timeout(3.0)
        return 7

    def parent():
        result = yield Process(sim, child())
        return result * 2

    proc = Process(sim, parent())
    sim.run()
    assert value_of(sim, proc) == 14


def test_yielding_raw_generator_spawns_child():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        return "inner"

    def parent():
        result = yield child()
        return result

    proc = Process(sim, parent())
    sim.run()
    assert value_of(sim, proc) == "inner"


def test_exception_in_process_fails_it():
    sim = Simulator()

    def body():
        yield sim.timeout(1.0)
        raise RuntimeError("exploded")

    proc = Process(sim, body())
    sim.run()
    assert proc.triggered
    assert isinstance(proc.exception, RuntimeError)


def test_child_failure_propagates_to_parent():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        raise ValueError("child broke")

    def parent():
        try:
            yield Process(sim, child())
        except ValueError:
            return "caught"
        return "missed"

    proc = Process(sim, parent())
    sim.run()
    assert value_of(sim, proc) == "caught"


def test_all_of_collects_values_in_order():
    sim = Simulator()

    def body():
        values = yield AllOf(sim, [sim.timeout(3.0, "c"), sim.timeout(1.0, "a")])
        return values

    proc = Process(sim, body())
    sim.run()
    assert value_of(sim, proc) == ["c", "a"]
    assert sim.now == 3.0


def test_all_of_empty_triggers_immediately():
    sim = Simulator()
    cond = AllOf(sim, [])
    assert cond.triggered
    assert value_of(sim, cond) == []


def test_non_generator_body_rejected():
    sim = Simulator()
    with pytest.raises(TypeError):
        Process(sim, lambda: None)  # type: ignore[arg-type]


def test_yielding_non_waitable_fails_process():
    sim = Simulator()

    def body():
        yield 12345

    proc = Process(sim, body())
    sim.run()
    assert isinstance(proc.exception, SimulationError)


def test_many_processes_deterministic():
    def run_once():
        sim = Simulator()
        order = []

        def worker(i):
            yield sim.timeout(float(i % 3))
            order.append(i)

        for i in range(30):
            Process(sim, worker(i))
        sim.run()
        return order

    assert run_once() == run_once()
