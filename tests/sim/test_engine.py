"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import Event, SimulationError, Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    fired = []
    sim.schedule(2.5, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [2.5]
    assert sim.now == 2.5


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(3.0, lambda: order.append("c"))
    sim.schedule(1.0, lambda: order.append("a"))
    sim.schedule(2.0, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fire_in_insertion_order():
    sim = Simulator()
    order = []
    for label in "abcde":
        sim.schedule(1.0, lambda label=label: order.append(label))
    sim.run()
    assert order == list("abcde")


def test_run_until_stops_clock_at_bound():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, lambda: fired.append(True))
    sim.run(until=4.0)
    assert fired == []
    assert sim.now == 4.0
    sim.run()
    assert fired == [True]
    assert sim.now == 10.0


def test_run_until_past_last_event_advances_clock():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run(until=100.0)
    assert sim.now == 100.0


def test_event_succeed_delivers_value():
    sim = Simulator()
    ev = sim.event("e")
    got = []
    ev.add_callback(lambda e: got.append(e.value))
    ev.succeed(42)
    sim.run()
    assert got == [42]


def test_event_cannot_trigger_twice():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_carries_exception():
    sim = Simulator()
    ev = sim.event()
    boom = ValueError("boom")
    ev.fail(boom)
    sim.run()
    assert ev.exception is boom
    with pytest.raises(ValueError):
        _ = ev.value


def test_fail_requires_exception_instance():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")  # type: ignore[arg-type]


def test_value_before_trigger_raises():
    sim = Simulator()
    ev = sim.event("pending")
    with pytest.raises(SimulationError):
        _ = ev.value


def test_late_callback_on_processed_event_still_fires():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("x")
    sim.run()
    got = []
    ev.add_callback(lambda e: got.append(e.value))
    sim.run()
    assert got == ["x"]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_nan_delay_rejected():
    # A NaN timestamp compares false with every other, so it would run
    # before every finite event.
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append("finite"))
    with pytest.raises(ValueError):
        sim.timeout(float("nan"))
    with pytest.raises(ValueError):
        sim.schedule(float("nan"), lambda: fired.append("nan"))
    sim.run()
    assert fired == ["finite"]


def test_run_until_before_now_rejected():
    sim = Simulator()
    sim.run(until=50.0)
    with pytest.raises(ValueError):
        sim.run(until=10.0)
    assert sim.now == 50.0
    fired = []
    sim.schedule(5.0, lambda: fired.append(sim.now))
    sim.run(until=50.0)  # ``until`` equal to now is a no-op
    sim.run()
    assert fired == [55.0]


def test_step_on_empty_queue_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.step()


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.schedule(7.0, lambda: None)
    assert sim.peek() == 7.0


def test_nested_scheduling_from_callback():
    sim = Simulator()
    times = []

    def outer():
        times.append(sim.now)
        sim.schedule(5.0, lambda: times.append(sim.now))

    sim.schedule(1.0, outer)
    sim.run()
    assert times == [1.0, 6.0]


def test_event_isinstance_of_base():
    sim = Simulator()
    assert isinstance(sim.timeout(1.0), Event)
