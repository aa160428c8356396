"""Topology-aware placement and the cross-job contention factor."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fault.domains import DomainTopology
from repro.scheduler.placement import PlacementError, PlacementMap
from tests.oracles import placement as oracle


def make_map(n_nodes=16, nodes_per_rack=4, nodes_per_pod=8):
    return PlacementMap(
        topology=DomainTopology(
            n_nodes=n_nodes, nodes_per_rack=nodes_per_rack, nodes_per_pod=nodes_per_pod
        )
    )


def test_place_prefers_fewest_pods_then_racks():
    pm = make_map()
    assert pm.place("a", 4) == [0, 1, 2, 3]  # one rack, one pod
    assert pm.place("b", 8) == [8, 9, 10, 11, 12, 13, 14, 15]  # whole pod 1
    # The 4-node hole left in pod 0 is reused before any span would.
    assert pm.place("c", 4) == [4, 5, 6, 7]


def test_place_is_deterministic_and_capacity_checked():
    first = make_map().place("a", 6)
    second = make_map().place("a", 6)
    assert first == second
    pm = make_map()
    pm.place("a", 15)
    with pytest.raises(PlacementError):
        pm.place("b", 2)


def test_kill_revive_and_drop_dead_lifecycle():
    pm = make_map()
    pm.place("a", 4)
    pm.kill(1)
    assert pm.nodes_of("a") == [0, 2, 3]
    assert 1 not in pm.free_indices()
    pm.revive(1)
    assert pm.nodes_of("a") == [0, 1, 2, 3]
    pm.kill(2)
    pm.drop_dead("a", [2])
    assert pm.nodes_of("a") == [0, 1, 3]
    assert 2 not in pm.free_indices()  # dead until repaired
    with pytest.raises(PlacementError):
        pm.drop_dead("a", [3])  # not dead
    with pytest.raises(PlacementError):
        pm.assign("b", [2])  # dead nodes cannot be assigned


def test_jobs_hit_batches_claims_in_name_order():
    pm = make_map()
    pm.place("zeta", 4)
    pm.place("alpha", 4)
    pm.kill(0)  # already dead: not claimable again
    hit = pm.jobs_hit([0, 1, 4, 5, 9])
    assert list(hit) == ["alpha", "zeta"]
    assert hit["alpha"] == [4, 5]
    assert hit["zeta"] == [1]


def test_contention_factor_only_when_sharing_a_pod():
    pm = make_map()
    pm.place("a", 4)
    pm.place("b", 4)  # lands on 4..7: same pod as a
    pm.place("c", 8)  # pod 1 alone
    assert pm.contention_factor("c") == 1.0
    shared = pm.contention_factor("a")
    assert 0.0 < shared <= 1.0
    # Both tenants of pod 0 see the same squeeze.
    assert pm.contention_factor("b") == pytest.approx(shared)


def test_contention_factor_monotone_in_neighbours():
    pm = make_map()
    pm.place("a", 4)
    base = pm.contention_factor("a", uplinks=4)
    pm.assign("b", [4, 5])
    light = pm.contention_factor("a", uplinks=4)
    pm.assign("b", [6, 7])
    heavy = pm.contention_factor("a", uplinks=4)
    assert base == 1.0
    assert heavy <= light <= base


# -- the maintained counts against the scan oracle ------------------------------

JOBS = ("a", "b", "c")
OPS = ("place", "assign", "release", "kill", "revive", "drop_dead")


@st.composite
def placement_runs(draw):
    """A topology and a sequence of mutator calls on it (some raise)."""
    nodes_per_pod = draw(st.sampled_from((2, 4, 8)))
    n_nodes = draw(st.integers(2, 20))
    topology = DomainTopology(
        n_nodes=n_nodes, nodes_per_rack=2, nodes_per_pod=nodes_per_pod
    )
    step = st.tuples(
        st.sampled_from(OPS),
        st.sampled_from(JOBS),
        st.lists(st.integers(0, n_nodes - 1), max_size=4),
        st.integers(1, 6),
        st.booleans(),  # release/drop_dead the job's own hosts (else the drawn ones)
    )
    return topology, draw(st.lists(step, max_size=30))


def _apply(pm, op, job, indices, n, own):
    if op == "place":
        pm.place(job, n)
    elif op == "assign":
        pm.assign(job, indices)
    elif op == "release":
        pm.release(job, pm.nodes_of(job)[:n] if own else indices)
    elif op == "drop_dead":
        owned_dead = sorted(i for i in pm.dead if pm.owner.get(i) == job)
        pm.drop_dead(job, owned_dead[:n] if own else indices)
    else:
        for index in indices:
            getattr(pm, op)(index)


def _assert_matches_oracle(pm):
    n_pods = pm.topology.n_pods
    fresh = PlacementMap(pm.topology, dict(pm.owner), set(pm.dead))
    for counted in (pm, fresh):  # kept by the mutators, derived on construction
        for pod in range(n_pods):
            assert counted._load.get(pod, 0) == oracle.pod_load(pm, pod)
            for job in JOBS:
                assert counted._alive.get(job, {}).get(pod, 0) == oracle.pod_load_of(
                    pm, pod, job
                )
    for spares in (0, 1, 3, pm.n_nodes):
        claimable = oracle.n_claimable(pm, spares)
        assert pm.n_claimable(spares) == claimable  # re-place budget
        for job in JOBS:
            # regrow budget
            assert pm.n_alive(job) + pm.n_claimable(spares) == (
                oracle.n_alive(pm, job) + claimable
            )
    for job in JOBS:
        assert pm.pods_of(job) == oracle.pods_of(pm, job)
        for uplinks in (2, 8):
            assert pm.contention_factor(job, uplinks) == oracle.contention_factor(
                pm, job, uplinks
            )


@settings(max_examples=150, deadline=None)
@given(placement_runs())
def test_counts_match_scan_oracle_through_any_mutation_sequence(run):
    """After every call, including ones that raise partway through a
    batch, the maintained counts answer every query exactly as a scan of
    ``owner`` and ``dead`` does: pods, contention floats and both
    scheduler budgets (re-place: claimable; regrow: alive + claimable)."""
    topology, steps = run
    pm = PlacementMap(topology=topology)
    for op, job, indices, n, own in steps:
        try:
            _apply(pm, op, job, indices, n, own)
        except PlacementError:
            pass
        _assert_matches_oracle(pm)


def test_indices_outside_the_topology_are_rejected():
    pm = make_map(n_nodes=8)
    with pytest.raises(ValueError):
        pm.kill(8)
    with pytest.raises(ValueError):
        pm.assign("a", [8])
    with pytest.raises(ValueError):
        PlacementMap(topology=pm.topology, dead={9})
    assert pm.n_claimable(0) == 8 and not pm.owner and not pm.dead
