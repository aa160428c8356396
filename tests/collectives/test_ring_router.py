"""The index ring router held to the ``Link``-list oracle.

:func:`repro.collectives.fabric.ring_route` plus
:func:`~repro.collectives.fabric.price_route` must give the
``RoutedStep`` that :mod:`tests.oracles.fabric` gives (``ring_flows``
over ``ClosFabric.path``, priced with ``Link``-keyed dicts) — compared
with ``==``, field by field — or raise the same exception type with the
same message, on healthy fabrics and on fabrics with links taken down
through ``set_link_state`` or written directly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives.fabric import (
    DEFAULT_PFC_PENALTY,
    RING_SOFTWARE_LATENCY,
    PfcPenaltyModel,
    price_route,
    ring_route,
)
from repro.collectives.runtime import SOFTWARE_LATENCY, RingCollectiveRuntime
from repro.network import ClosFabric
from tests.oracles.fabric import routed_step

PENALTIES = [
    None,
    DEFAULT_PFC_PENALTY,
    PfcPenaltyModel(pause_per_excess=0.3, max_pause_fraction=0.4, retransmit_latency=50e-6),
]


@st.composite
def shapes(draw):
    uplinks = draw(st.sampled_from([1, 4]))
    return dict(
        n_nodes=draw(st.integers(4, 32)),
        nodes_per_pod=draw(st.integers(1, 8)),
        aggs_per_pod=draw(st.sampled_from([1, 2, 8])),
        n_spines=draw(st.sampled_from([1, 2, 8])),
        tor_uplinks_per_agg=uplinks,
        agg_uplinks_per_spine=uplinks,
    )


@st.composite
def link_changes(draw, shape):
    """Up to three ``(how, src, dst, index)`` changes to rail-0 links:
    ``state`` takes the link down through ``set_link_state``; ``up`` and
    ``bandwidth`` write the built ``Link`` directly."""
    changes = []
    for _ in range(draw(st.integers(0, 3))):
        node = draw(st.integers(0, shape["n_nodes"] - 1))
        pod = node // shape["nodes_per_pod"]
        nic, tor = f"node{node}.nic0", f"tor{pod}.0"
        agg = f"agg{pod}.{draw(st.integers(0, shape['aggs_per_pod'] - 1))}"
        spine = f"spine{draw(st.integers(0, shape['n_spines'] - 1))}"
        member = draw(st.integers(0, shape["tor_uplinks_per_agg"] - 1))
        src, dst, index = draw(st.sampled_from([
            (nic, tor, 0), (tor, nic, 0),
            (tor, agg, member), (agg, tor, member),
            (agg, spine, member), (spine, agg, member),
        ]))
        changes.append((draw(st.sampled_from(["state", "up", "bandwidth"])), src, dst, index))
    return changes


def degrade(fabric, changes):
    for how, src, dst, index in changes:
        if how == "state":
            fabric.set_link_state(src, dst, False, index=index)
            continue
        link = fabric.parallel_links[(src, dst)][index]
        if how == "up":
            link.up = False
        else:
            link.bandwidth /= 4


def outcome(price):
    """The priced step, or the (type, message) of what pricing raised."""
    try:
        return price()
    except (RuntimeError, ValueError) as error:
        return type(error), str(error)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_index_router_prices_as_the_link_list_oracle(data):
    shape = data.draw(shapes())
    n = shape["n_nodes"]
    nodes = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=24))
    if data.draw(st.integers(0, 9)) == 0:  # now and then, a node off the fabric
        nodes.insert(data.draw(st.integers(0, len(nodes))), data.draw(st.sampled_from([-1, n])))
    changes = data.draw(link_changes(shape))
    cc = data.draw(st.sampled_from([0.8, 1.0]))
    penalty = data.draw(st.sampled_from(PENALTIES))
    router, oracle = ClosFabric(**shape), ClosFabric(**shape)
    demand = data.draw(st.sampled_from([router.nic_rate, 3 * router.nic_rate, float("inf")]))
    if data.draw(st.booleans()):
        assert router.links  # route over a built graph, not on-demand bundles
    degrade(router, changes)
    degrade(oracle, changes)

    def indexed():
        route = ring_route(router, nodes)
        return price_route(router, route, demand, RING_SOFTWARE_LATENCY, cc, penalty)

    want = outcome(lambda: routed_step(oracle, nodes, demand, RING_SOFTWARE_LATENCY, cc, penalty))
    assert outcome(indexed) == want


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_path_ids_walk_the_built_graph_as_path_does(data):
    """``path_ids`` on an unbuilt fabric names, through the ids the whole
    graph's build assigns, a connected walk from the source NIC to the
    destination NIC — the links ``path`` picks — or raises its error."""
    shape = data.draw(shapes())
    n = shape["n_nodes"]
    lazy, built = ClosFabric(**shape), ClosFabric(**shape)
    assert built.links
    changes = [c for c in data.draw(link_changes(shape)) if c[0] == "state"]
    degrade(lazy, changes)
    degrade(built, changes)
    src, dst = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    flow_id = data.draw(st.integers(0, 1023))
    ids = outcome(lambda: lazy.path_ids(src, dst, 0, flow_id))
    links = outcome(lambda: built.path(src, dst, rail=0, flow_id=flow_id))
    if isinstance(links, tuple):  # an error
        assert ids == links
        return
    assert [link for _, link in built.built_links(ids)] == links
    for link in links:  # each a member of the graph's bundle by that name
        assert link in built.parallel_links[(link.src, link.dst)]
    walk = [f"node{src}.nic0"] + [link.dst for link in links]
    assert [link.src for link in links] == walk[:-1]
    assert walk[-1] == (f"node{dst}.nic0" if links else walk[0])


@settings(max_examples=30, deadline=None)
@given(shape=shapes())
def test_link_ids_number_the_whole_graph_once(shape):
    fabric = ClosFabric(**shape)
    links = list(fabric.links.values())
    ids = np.arange(len(links))
    built = fabric.built_links(ids.tolist())
    assert {id(link) for _, link in built} == {id(link) for link in links}
    assert len(built) == len(links)
    # The arithmetic rate of each id, on a fabric with nothing built,
    # is the bandwidth its built Link was given.
    unbuilt = ClosFabric(**shape).link_bandwidths(ids)
    assert unbuilt.tolist() == [link.bandwidth for _, link in built]


@pytest.mark.parametrize("nodes", [[0, 1, 2, 3], [0, 8, 1, 9, 2, 10], [3, 3, 12, 5, 12]])
def test_runtime_steps_are_the_oracles_ideal_step(nodes):
    fabric = ClosFabric(n_nodes=16, nodes_per_pod=8, aggs_per_pod=2, n_spines=2)
    run = RingCollectiveRuntime(fabric, node_of_rank=nodes).run("all_gather", 1e9)
    step = routed_step(
        ClosFabric(n_nodes=16, nodes_per_pod=8, aggs_per_pod=2, n_spines=2),
        nodes, float("inf"), SOFTWARE_LATENCY, 1.0, None,
    ).cost(1e9 / len(nodes))
    assert [s.duration for s in run.steps] == [step.duration] * (len(nodes) - 1)
    assert run.steps[0].slowest_pair == step.slowest_flow


def test_runtime_raises_on_a_link_written_down_mid_collective():
    from repro.sim import Process, Simulator

    fabric = ClosFabric(n_nodes=16, nodes_per_pod=8)  # private: it gets degraded
    runtime = RingCollectiveRuntime(fabric, node_of_rank=[0, 1, 2, 3])
    clean = runtime.run("all_gather", 4e9)
    sim = Simulator()

    def outage():
        yield sim.timeout(1.5 * clean.steps[0].duration)  # during the second step
        fabric.links[("tor0.0", "node3.nic0")].up = False  # behind the fabric's back

    Process(sim, outage())
    with pytest.raises(RuntimeError, match="flow 2 routed over down link tor0.0->node3.nic0"):
        runtime.run("all_gather", 4e9, sim=sim)
    assert not fabric.degraded()
