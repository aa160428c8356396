"""Tests for the dynamic transfer engine."""

import pytest

from repro.network import Link
from repro.network.transfers import Transfer, TransferEngine
from repro.sim import Simulator


def make_link(bw=1e9):
    return Link(src="a", dst="b", bandwidth=bw)


def test_single_transfer_time():
    sim = Simulator()
    engine = TransferEngine(sim)
    link = make_link(1e9)
    t = engine.submit([link], size=2e9)
    engine.run_to_completion()
    assert t.finished_at == pytest.approx(2.0)
    assert link.bytes_carried == pytest.approx(2e9, rel=1e-6)


def test_two_equal_transfers_share_fairly():
    sim = Simulator()
    engine = TransferEngine(sim)
    link = make_link(1e9)
    t1 = engine.submit([link], size=1e9)
    t2 = engine.submit([link], size=1e9)
    engine.run_to_completion()
    # Sharing halves the rate: both finish at ~2 s.
    assert t1.finished_at == pytest.approx(2.0, rel=1e-3)
    assert t2.finished_at == pytest.approx(2.0, rel=1e-3)


def test_departure_speeds_up_survivor():
    sim = Simulator()
    engine = TransferEngine(sim)
    link = make_link(1e9)
    small = engine.submit([link], size=0.5e9)
    big = engine.submit([link], size=1.5e9)
    engine.run_to_completion()
    # Shared until small finishes at t=1 (0.5e9 at 0.5 GB/s); big then has
    # 1.0e9 left at full rate: finishes at t=2.
    assert small.finished_at == pytest.approx(1.0, rel=1e-3)
    assert big.finished_at == pytest.approx(2.0, rel=1e-3)


def test_late_arrival_slows_down_existing():
    sim = Simulator()
    engine = TransferEngine(sim)
    link = make_link(1e9)
    submissions = [
        (0.0, [link], 2e9),
        (1.0, [link], 0.5e9),
    ]
    for delay, path, size in submissions:
        sim.schedule(delay, lambda path=path, size=size: engine.submit(path, size))
    sim.run()
    first, second = sorted(engine.completed, key=lambda t: t.started_at)
    # First runs alone for 1 s (1e9 moved), then shares: remaining 1e9 at
    # 0.5 GB/s while the newcomer moves its 0.5e9 (finishing at t=2),
    # then the first finishes its last 0.5e9 alone at t=2.5.
    assert second.finished_at == pytest.approx(2.0, rel=1e-3)
    assert first.finished_at == pytest.approx(2.5, rel=1e-3)


def test_disjoint_paths_do_not_interact():
    sim = Simulator()
    engine = TransferEngine(sim)
    t1 = engine.submit([make_link(1e9)], size=1e9)
    t2 = engine.submit([make_link(1e9)], size=1e9)
    engine.run_to_completion()
    assert t1.finished_at == pytest.approx(1.0, rel=1e-3)
    assert t2.finished_at == pytest.approx(1.0, rel=1e-3)


def test_total_bytes_conserved():
    sim = Simulator()
    engine = TransferEngine(sim)
    link = make_link(2e9)
    sizes = [0.5e9, 1.0e9, 1.5e9]
    for s in sizes:
        engine.submit([link], size=s)
    engine.run_to_completion()
    assert link.bytes_carried == pytest.approx(sum(sizes), rel=1e-3)
    assert len(engine.completed) == 3


def test_done_event_is_waitable():
    from repro.sim import Process

    sim = Simulator()
    engine = TransferEngine(sim)
    link = make_link(1e9)
    log = []

    def waiter():
        transfer = engine.submit([link], size=1e9)
        result = yield transfer.done
        log.append((sim.now, result.transfer_id))

    Process(sim, waiter())
    sim.run()
    assert len(log) == 1
    assert log[0][0] == pytest.approx(1.0, rel=1e-3)


def test_transfer_validation():
    with pytest.raises(ValueError):
        Transfer(path=[make_link()], size=0)
