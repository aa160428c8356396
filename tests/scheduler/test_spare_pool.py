"""Spare-pool arbitration: ordering, ledgers, and the balance invariant."""

import pytest

from repro.hardware.cluster import Cluster
from repro.scheduler.spare_pool import SpareClaim, SparePool


def make_pool(n_spares=2, policy="priority"):
    cluster = Cluster.build(n_nodes=4, n_spares=n_spares)
    return SparePool(cluster=cluster, policy=policy), cluster


def test_priority_order_outranks_weight_and_seq():
    pool, _ = make_pool()
    claims = [
        SpareClaim(job="c", needed=1, priority=1, weight=9.0, seq=0),
        SpareClaim(job="a", needed=1, priority=5, weight=1.0, seq=1),
        SpareClaim(job="b", needed=1, priority=5, weight=2.0, seq=2),
    ]
    assert [c.job for c in pool.order(claims)] == ["b", "a", "c"]


def test_fifo_order_is_submission_order():
    pool, _ = make_pool(policy="fifo")
    claims = [
        SpareClaim(job="low", needed=1, priority=0, weight=1.0, seq=0),
        SpareClaim(job="high", needed=1, priority=99, weight=9.0, seq=1),
    ]
    assert [c.job for c in pool.order(claims)] == ["low", "high"]


def test_arbitrate_splits_pool_with_partial_grant():
    pool, _ = make_pool(n_spares=2)
    claims = [
        SpareClaim(job="lo", needed=2, priority=1, seq=0),
        SpareClaim(job="hi", needed=2, priority=9, seq=1),
    ]
    grants = {g.claim.job: g for g in pool.arbitrate(claims)}
    assert grants["hi"].granted == 2 and not grants["hi"].denied
    assert grants["lo"].granted == 0 and grants["lo"].denied
    assert grants["lo"].shortfall == 2


def test_arbitrate_is_pure_and_repeatable():
    pool, _ = make_pool(n_spares=1)
    claims = [
        SpareClaim(job="x", needed=1, priority=2, seq=0),
        SpareClaim(job="y", needed=1, priority=2, seq=1),
    ]
    first = [(g.claim.job, g.granted) for g in pool.arbitrate(claims)]
    second = [(g.claim.job, g.granted) for g in pool.arbitrate(claims)]
    assert first == second == [("x", 1), ("y", 0)]


def test_ledger_balances_through_eviction():
    pool, cluster = make_pool(n_spares=2)
    assert pool.initial == 2 and pool.consistent()
    cluster.evict(cluster.nodes[0].node_id)
    pool.record("job", 1)
    assert pool.consumed() == 1 and pool.available == 1
    assert pool.consistent()


def test_unknown_policy_rejected():
    with pytest.raises(ValueError):
        SparePool(cluster=Cluster.build(n_nodes=2), policy="roulette")


def test_invalid_claims_rejected():
    with pytest.raises(ValueError):
        SpareClaim(job="a", needed=0)
    with pytest.raises(ValueError):
        SpareClaim(job="a", needed=1, weight=0.0)
