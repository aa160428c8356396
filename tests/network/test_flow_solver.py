"""Tests for the numpy max-min solver.

The per-flow oracle they are held to lives in ``tests/oracles/flow.py``.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.network import (
    ClosFabric,
    Flow,
    Link,
    max_min_fair_rates,
)
from tests.oracles.flow import max_min_fair_rates_reference


def _links(bandwidths):
    return [
        Link(src=f"s{i}", dst=f"d{i}", bandwidth=bw) for i, bw in enumerate(bandwidths)
    ]


# -- vectorized vs reference ---------------------------------------------------


@st.composite
def flow_sets(draw):
    """Random (links, flow specs): shared paths, mixed demands, empty paths."""
    bandwidths = draw(
        st.lists(st.floats(min_value=1e8, max_value=4e11), min_size=1, max_size=8)
    )
    n_links = len(bandwidths)
    n_flows = draw(st.integers(min_value=1, max_value=12))
    specs = []
    for _ in range(n_flows):
        path = draw(
            st.lists(st.integers(min_value=0, max_value=n_links - 1), max_size=5)
        )
        demand = draw(
            st.one_of(st.just(float("inf")), st.floats(min_value=1e6, max_value=1e12))
        )
        specs.append((path, demand))
    return bandwidths, specs


def _build(bandwidths, specs):
    links = _links(bandwidths)
    return [
        Flow(flow_id=i, path=[links[li] for li in path], demand=demand)
        for i, (path, demand) in enumerate(specs)
    ]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(flow_sets())
def test_vectorized_matches_reference(flow_set):
    bandwidths, specs = flow_set
    ref_flows = _build(bandwidths, specs)
    vec_flows = _build(bandwidths, specs)
    ref = max_min_fair_rates_reference(ref_flows)
    vec = max_min_fair_rates(vec_flows)
    assert set(ref) == set(vec)
    for fid, ref_rate in ref.items():
        assert vec[fid] == pytest.approx(ref_rate, rel=1e-9), (
            f"flow {fid}: vectorized {vec[fid]} vs reference {ref_rate}"
        )
    # Both solvers also store the rates on the flows themselves.
    for rf, vf in zip(ref_flows, vec_flows):
        assert vf.rate == pytest.approx(rf.rate, rel=1e-9)
        assert rf.demand == float("inf") or rf.rate <= rf.demand * (1 + 1e-9)


def _ring_flows(fabric, n_flows):
    """Cross-pod neighbour flows: each hops one pod ahead on its own rail,
    so paths share ToR uplinks, aggs and spines, and many links saturate
    at the same water level."""
    flows = []
    for i in range(n_flows):
        src = i % fabric.n_nodes
        dst = (src + fabric.nodes_per_pod) % fabric.n_nodes
        path = fabric.path(src, dst, rail=i % fabric.rails, flow_id=i)
        flows.append(Flow(flow_id=i, path=path, demand=fabric.nic_rate))
    return flows


@pytest.mark.parametrize("n_nodes,n_flows", [(256, 512), (1536, 2048)])
def test_vectorized_matches_reference_on_routed_fabric_flows(n_nodes, n_flows):
    fabric = ClosFabric(n_nodes=n_nodes, nodes_per_pod=64)
    ref = max_min_fair_rates_reference(_ring_flows(fabric, n_flows))
    vec = max_min_fair_rates(_ring_flows(fabric, n_flows))
    assert set(vec) == set(ref) == set(range(n_flows))
    for fid, ref_rate in ref.items():
        assert vec[fid] == pytest.approx(ref_rate, rel=1e-9), (
            f"flow {fid}: vectorized {vec[fid]} vs reference {ref_rate}"
        )
    # Congested: the fabric, not the NIC demand, limits the flows.
    assert min(ref.values()) < fabric.nic_rate


def test_multi_bottleneck_levels_match():
    # Three saturation levels: narrow (2), medium (6 shared by two),
    # wide (20) — the classic progressive-filling staircase.
    narrow, medium, wide = _links([2.0, 6.0, 20.0])
    specs = [
        [narrow, medium, wide],
        [medium, wide],
        [wide],
    ]
    ref = [Flow(flow_id=i, path=list(p)) for i, p in enumerate(specs)]
    vec = [Flow(flow_id=i, path=list(p)) for i, p in enumerate(specs)]
    r = max_min_fair_rates_reference(ref)
    v = max_min_fair_rates(vec)
    assert r == v
    assert v[0] == pytest.approx(2.0)
    assert v[1] == pytest.approx(4.0)
    assert v[2] == pytest.approx(14.0)


def test_repeated_link_in_path_counts_twice():
    # A path traversing the same link twice gets half its bandwidth —
    # in both the general water-fill and the single-flow closed form.
    link = _links([10.0])[0]
    lone = [Flow(flow_id=0, path=[link, link])]
    assert max_min_fair_rates(lone)[0] == pytest.approx(5.0)
    pair = [
        Flow(flow_id=0, path=[link, link]),
        Flow(flow_id=1, path=[link]),
    ]
    ref = max_min_fair_rates_reference([Flow(f.flow_id, list(f.path)) for f in pair])
    vec = max_min_fair_rates(pair)
    for fid in ref:
        assert vec[fid] == pytest.approx(ref[fid], rel=1e-9)


def test_empty_path_unbounded_demand_prices_latency_only():
    # Regression: a same-host flow with the default (infinite) demand
    # used to get rate 0.0, which priced healthy local traffic as
    # stalled.  It must price as latency-only instead.
    flow = Flow(flow_id=0, path=[])
    for solver in (max_min_fair_rates, max_min_fair_rates_reference):
        flow.rate = 0.0
        solver([flow])
        assert flow.rate == float("inf")


def test_vectorized_raises_on_down_link():
    dead = Link(src="a", dst="b", bandwidth=1e9, up=False)
    with pytest.raises(RuntimeError):
        max_min_fair_rates([Flow(flow_id=0, path=[dead])])
    with pytest.raises(RuntimeError):
        max_min_fair_rates([Flow(flow_id=0, path=[dead]), Flow(flow_id=1, path=[dead])])


def test_link_watchers_do_not_pickle():
    # A link is a plain record: after a solve it pickles with its fields
    # intact and no callback or watcher state riding along.
    import dataclasses
    import pickle

    link = _links([1e9])[0]
    max_min_fair_rates([Flow(flow_id=0, path=[link])])
    clone = pickle.loads(pickle.dumps(link))
    assert clone.bandwidth == link.bandwidth
    assert "_watchers" not in clone.__dict__
    assert set(vars(clone)) == {f.name for f in dataclasses.fields(Link)}
