"""Tests for priority communication launch."""

import pytest

from repro.training.priority import (
    CommOp,
    chunk_prefetch_ops,
    exposed_stall,
    fifo_order,
    priority_benefit,
    priority_order,
)


# -- priority launch ------------------------------------------------------------


def test_priority_order_is_edf():
    ops = [CommOp("late", 1.0, 10.0), CommOp("urgent", 1.0, 0.5), CommOp("mid", 1.0, 3.0)]
    assert priority_order(ops) == [1, 2, 0]
    assert fifo_order(ops) == [0, 1, 2]


def test_priority_never_worse_than_fifo():
    # EDF minimizes total lateness for serial execution on one resource.
    cases = [
        [CommOp("a", 2.0, 5.0), CommOp("b", 1.0, 1.0)],
        [CommOp("a", 0.5, 0.0), CommOp("b", 0.5, 0.0), CommOp("c", 0.5, 2.0)],
        [CommOp("a", 1.0, 9.0), CommOp("b", 1.0, 8.0), CommOp("c", 1.0, 7.0)],
    ]
    for ops in cases:
        fifo, prio = priority_benefit(ops)
        assert prio <= fifo + 1e-12


def test_priority_strictly_helps_when_urgent_op_issued_last():
    ops = [CommOp("bulky", 3.0, 100.0), CommOp("urgent", 1.0, 1.0)]
    fifo, prio = priority_benefit(ops)
    assert fifo == pytest.approx(3.0)  # urgent finishes at 4, deadline 1
    assert prio == pytest.approx(0.0)  # urgent first: on time; bulky slack


def test_exposed_stall_validation():
    ops = [CommOp("a", 1.0, 1.0)]
    with pytest.raises(ValueError):
        exposed_stall(ops, [0, 0])
    with pytest.raises(ValueError):
        exposed_stall(ops, [])
    with pytest.raises(ValueError):
        exposed_stall(ops, [3])
    with pytest.raises(ValueError):
        CommOp("bad", -1.0, 0.0)


def test_chunk_prefetch_instance():
    # 6 chunk all-gathers under a 3-chunk-long compute runway: FIFO is
    # fine here because deadlines are already in order — the interesting
    # case is reversed issue order.
    ops = chunk_prefetch_ops([0.05] * 6, compute_chunk_time=0.1)
    assert ops[0].deadline == 0.0
    assert ops[5].deadline == pytest.approx(0.5)
    reversed_issue = list(reversed(range(6)))
    assert exposed_stall(ops, priority_order(ops)) <= exposed_stall(ops, reversed_issue)
    with pytest.raises(ValueError):
        chunk_prefetch_ops([0.1], compute_chunk_time=0.0)

