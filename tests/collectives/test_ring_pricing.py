"""Analytic ring pricing: O(1) from a ring's extremes, exact against the
per-pair scan in :mod:`tests.oracles.groups`, and no link graph."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives import GroupCommModel, build_comm_model
from repro.exec.memo import clear_caches, get_cache
from repro.hardware.gpu import AMPERE
from repro.hardware.node import NodeSpec
from repro.network import ClosFabric, Link
from repro.parallel import ParallelPlan
from tests.metrics import reset_cache
from tests.oracles.groups import ring_bandwidth_reference

cc_efficiencies = st.floats(min_value=0.01, max_value=1.0)


def _model(plan, gpus_per_node, nodes_per_pod, cc_efficiency):
    return build_comm_model(
        plan,
        nodes_per_pod=nodes_per_pod,
        node_spec=NodeSpec(gpus_per_node=gpus_per_node),
        cc_efficiency=cc_efficiency,
    )


@settings(max_examples=200, deadline=None)
@given(
    dp=st.integers(1, 64),
    tp=st.integers(1, 8),
    pp=st.integers(1, 8),
    dp_before_pp=st.booleans(),
    gpus_per_node=st.integers(1, 16),
    nodes_per_pod=st.integers(1, 8),
    cc_efficiency=cc_efficiencies,
)
def test_dp_ring_price_matches_pair_scan(
    dp, tp, pp, dp_before_pp, gpus_per_node, nodes_per_pod, cc_efficiency
):
    plan = ParallelPlan(dp=dp, tp=tp, pp=pp, dp_before_pp=dp_before_pp)
    model = _model(plan, gpus_per_node, nodes_per_pod, cc_efficiency)
    for p in range(pp):
        for t in range(tp):
            group = plan.dp_group(plan.rank_of(p, 0, t))
            expected = ring_bandwidth_reference(model, list(group))
            assert model.ring_bandwidth(group) == expected
            assert model.ring_bandwidth(group[::-1]) == expected


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    gpus_per_node=st.integers(1, 16),
    nodes_per_pod=st.integers(1, 8),
    cc_efficiency=cc_efficiencies,
)
def test_any_ring_price_matches_pair_scan(data, gpus_per_node, nodes_per_pod, cc_efficiency):
    plan = ParallelPlan(dp=16, tp=4, pp=4)
    model = _model(plan, gpus_per_node, nodes_per_pod, cc_efficiency)
    ranks = data.draw(st.lists(st.integers(0, plan.world_size - 1), max_size=24))
    assert model.ring_bandwidth(ranks) == ring_bandwidth_reference(model, ranks)


def test_conflict_factor_looked_up_only_for_cross_pod_pairs():
    cache = get_cache("conflict_factor")
    reset_cache(cache)
    in_pod = build_comm_model(ParallelPlan(dp=4, tp=8, pp=8))
    in_pod.dp_collective_time("all_reduce", 1e9)
    in_pod.pp_p2p_time(1e6)
    assert cache.hits + cache.misses == 0
    cross_pod = build_comm_model(ParallelPlan(dp=192, tp=8, pp=8))
    cross_pod.dp_collective_time("all_reduce", 1e9)
    assert cache.hits + cache.misses == 1


def test_nvlink_slower_than_nic_rejected():
    slow_nvlink = NodeSpec(gpu_spec=replace(AMPERE, nvlink_bandwidth=1e9))
    with pytest.raises(ValueError, match="NVLink"):
        GroupCommModel(
            plan=ParallelPlan(dp=2, tp=8, pp=1),
            fabric=ClosFabric(n_nodes=2),
            node_spec=slow_nvlink,
        )


# -- no link graph on the analytic path -----------------------------------------


@pytest.fixture
def links_built(monkeypatch):
    """A one-element list counting every Link constructed while it lives."""
    count = [0]
    init = Link.__post_init__

    def counting(self):
        count[0] += 1
        init(self)

    monkeypatch.setattr(Link, "__post_init__", counting)
    clear_caches()  # cold: no interned fabric or memoized price survives
    return count


def test_cold_analytic_compare_and_search_build_no_links(links_built):
    from repro.core import compare, job_175b
    from repro.model import GPT_175B
    from repro.parallel import search_plans

    compare(job_175b(n_gpus=12288, global_batch=6144))
    result = search_plans(GPT_175B, 12288, 6144, top_k=3)
    assert result.top
    assert links_built[0] == 0


def test_fabric_backend_still_routes(links_built):
    # A cold fabric DP collective routes its same-pod ring by link id and
    # builds no Link.  A later read of the whole graph builds every link,
    # and the ring prices the same over the built graph.
    model = build_comm_model(ParallelPlan(dp=4, tp=8, pp=8), backend="fabric")
    cold = model.dp_collective_time("all_gather", 1e9)
    assert cold > 0
    assert links_built[0] == 0
    total = len(model.fabric.links)
    assert total == links_built[0] > 0
    clear_caches()  # route the ring again, now over built links
    assert model.dp_collective_time("all_gather", 1e9) == cold
    assert links_built[0] == total
