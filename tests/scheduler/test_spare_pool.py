"""Spare-pool arbitration: ordering, ledgers, and the balance invariant."""

import pytest

from repro.scheduler.spare_pool import SpareClaim, SparePool


def make_pool(n_spares=2, policy="priority"):
    return SparePool(n_spares, policy=policy)


def test_priority_order_outranks_weight_and_seq():
    pool = make_pool()
    claims = [
        SpareClaim(job="c", needed=1, priority=1, weight=9.0, seq=0),
        SpareClaim(job="a", needed=1, priority=5, weight=1.0, seq=1),
        SpareClaim(job="b", needed=1, priority=5, weight=2.0, seq=2),
    ]
    assert [c.job for c in pool.order(claims)] == ["b", "a", "c"]


def test_fifo_order_is_submission_order():
    pool = make_pool(policy="fifo")
    claims = [
        SpareClaim(job="low", needed=1, priority=0, weight=1.0, seq=0),
        SpareClaim(job="high", needed=1, priority=99, weight=9.0, seq=1),
    ]
    assert [c.job for c in pool.order(claims)] == ["low", "high"]


def test_arbitrate_splits_pool_with_partial_grant():
    pool = make_pool(n_spares=2)
    claims = [
        SpareClaim(job="lo", needed=2, priority=1, seq=0),
        SpareClaim(job="hi", needed=2, priority=9, seq=1),
    ]
    grants = {g.claim.job: g for g in pool.arbitrate(claims)}
    assert grants["hi"].granted == 2 and not grants["hi"].denied
    assert grants["lo"].granted == 0 and grants["lo"].denied
    assert grants["lo"].shortfall == 2


def test_arbitrate_is_pure_and_repeatable():
    pool = make_pool(n_spares=1)
    claims = [
        SpareClaim(job="x", needed=1, priority=2, seq=0),
        SpareClaim(job="y", needed=1, priority=2, seq=1),
    ]
    first = [(g.claim.job, g.granted) for g in pool.arbitrate(claims)]
    second = [(g.claim.job, g.granted) for g in pool.arbitrate(claims)]
    assert first == second == [("x", 1), ("y", 0)]


def test_ledger_balances_through_eviction():
    pool = make_pool(n_spares=2)
    assert pool.initial == 2 and pool.consistent()
    pool.record("job", 1)  # one evicted host replaced from the pool
    assert pool.consumed() == 1 and pool.available == 1
    assert pool.consistent()
    with pytest.raises(ValueError):
        pool.record("other", 2)  # more than the pool holds
    assert pool.available == 1 and pool.consistent()


def test_unknown_policy_rejected():
    with pytest.raises(ValueError):
        SparePool(2, policy="roulette")


def test_invalid_claims_rejected():
    with pytest.raises(ValueError):
        SpareClaim(job="a", needed=0)
    with pytest.raises(ValueError):
        SpareClaim(job="a", needed=1, weight=0.0)
