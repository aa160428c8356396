"""Tests for the flow-level fabric cost backend (§3.6)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives import (
    COST_BACKENDS,
    DEFAULT_CC_EFFICIENCY,
    FabricCostModel,
    GroupCommModel,
    PfcPenaltyModel,
    build_comm_model,
    fabric_collective_cost,
    ring_all_gather,
    ring_all_reduce,
    route_step,
    validate_backend,
)
from repro.collectives.fabric import MIN_ROUTED_LATENCY, RING_SOFTWARE_LATENCY
from repro.collectives.primitives import INTER_NODE_LATENCY
from repro.exec.memo import get_cache
from repro.network import ClosFabric, Flow, Link
from repro.network.topology import LINK_LATENCY
from repro.parallel import ParallelPlan
from tests.metrics import counter, reset_cache
from tests.oracles.fabric import ring_flows


def _fabric(n_nodes=16, nodes_per_pod=8):
    return ClosFabric(n_nodes=n_nodes, nodes_per_pod=nodes_per_pod)


# -- alpha-beta degeneration ---------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=8),
    size=st.floats(min_value=1e3, max_value=4e9),
    kind=st.sampled_from(["all_gather", "reduce_scatter", "all_reduce"]),
)
def test_fabric_degenerates_to_alpha_beta_on_single_tor_group(n, size, kind):
    # Uncongested single-ToR ring: the routed price must match the
    # closed-form alpha-beta model at the NIC's derated bandwidth.
    fabric = _fabric(n_nodes=8, nodes_per_pod=8)
    model = FabricCostModel(fabric)
    routed = model.collective_cost(kind, size, tuple(range(n)))
    analytic_fn = ring_all_reduce if kind == "all_reduce" else ring_all_gather
    analytic = analytic_fn(
        size, n, fabric.nic_rate * DEFAULT_CC_EFFICIENCY, INTER_NODE_LATENCY
    )
    assert routed.time == pytest.approx(analytic, rel=1e-9)


def test_ring_software_latency_tops_up_to_inter_node_latency():
    # The degeneration above is exact because a clean intra-pod path
    # (two links) plus the software latency equals the analytic model's
    # per-step latency, and every link the fabric builds has LINK_LATENCY.
    assert RING_SOFTWARE_LATENCY + 2 * LINK_LATENCY == pytest.approx(INTER_NODE_LATENCY)
    assert MIN_ROUTED_LATENCY == RING_SOFTWARE_LATENCY + 2 * LINK_LATENCY
    fabric = _fabric(n_nodes=16, nodes_per_pod=8)
    assert {link.latency for link in fabric.links.values()} == {LINK_LATENCY}


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=8),
    size=st.floats(min_value=1e6, max_value=4e9),
    kind=st.sampled_from(["all_gather", "all_reduce"]),
)
def test_same_tor_never_slower_than_cross_pod(n, size, kind):
    fabric = _fabric(n_nodes=16, nodes_per_pod=8)
    model = FabricCostModel(fabric)
    near = model.collective_cost(kind, size, tuple(range(n)))
    spread = tuple((i % 2) * 8 + i // 2 for i in range(n))  # alternate pods
    far = model.collective_cost(kind, size, spread)
    assert near.time <= far.time


# -- routed step mechanics -----------------------------------------------------


def test_congested_cross_pod_ring_step_is_pinned():
    # One ring, two transports over the same routed flows: the event
    # runtime (7 us software latency, ideal transport, uncapped flows)
    # and the cost model (NIC-rate flows, CC efficiency, PFC).  Two
    # single-link aggs and spines per pod make the 32-node ring, striped
    # across eight pods, collide on the uplinks; exact floats pin the
    # ECMP ids, the water-fill and the pricing together.
    from repro.collectives.runtime import RingCollectiveRuntime

    fabric = ClosFabric(
        n_nodes=128, nodes_per_pod=16, aggs_per_pod=2, n_spines=2,
        tor_uplinks_per_agg=1, agg_uplinks_per_spine=1,
    )
    nodes = [(i % 8) * 16 + i // 8 for i in range(32)]
    run = RingCollectiveRuntime(fabric, node_of_rank=nodes).run("all_gather", 1e9)
    step = run.steps[0]
    assert len(run.steps) == 31
    assert step.duration == 0.002513
    assert step.slowest_pair == 1
    assert step.max_link_load == 4
    assert step.paused_flows == 0
    assert run.total_time == 0.07790300000000003

    cost = FabricCostModel(fabric).collective_cost("all_gather", 1e9, nodes)
    assert cost.n_steps == 31
    assert cost.step.duration == 0.0031353236714975847
    assert cost.step.n_flows == 32
    assert cost.step.paused_flows == 27
    assert cost.step.slowest_flow == 1
    assert cost.step.max_link_load == 4
    assert cost.time == 0.09719503381642512


def test_empty_paths_are_same_host():
    fabric = _fabric()
    model = FabricCostModel(fabric)
    # All ranks on one node: no inter-node flows, latency-only steps.
    cost = model.collective_cost("all_gather", 1e9, (3, 3, 3, 3))
    assert cost.step.n_flows == 0
    assert cost.time == pytest.approx(3 * RING_SOFTWARE_LATENCY)


def test_zero_size_and_single_node_are_free():
    model = FabricCostModel(_fabric())
    assert model.collective_cost("all_gather", 0.0, (0, 1, 2)).time == 0.0
    assert model.collective_cost("all_reduce", 1e9, (0,)).time == 0.0


def test_unsupported_kind_rejected():
    with pytest.raises(ValueError):
        FabricCostModel(_fabric()).collective_cost("broadcast", 1e6, (0, 1))


def test_p2p_time_same_node_free_and_cross_pod_slower():
    model = FabricCostModel(_fabric(n_nodes=16, nodes_per_pod=8))
    assert model.p2p_time(1e8, 2, 2) == 0.0
    same_pod = model.p2p_time(1e8, 0, 1)
    cross_pod = model.p2p_time(1e8, 0, 9)
    assert 0.0 < same_pod < cross_pod


def test_pfc_penalty_validation_and_pause_curve():
    with pytest.raises(ValueError):
        PfcPenaltyModel(pause_per_excess=-0.1)
    with pytest.raises(ValueError):
        PfcPenaltyModel(max_pause_fraction=1.0)
    with pytest.raises(ValueError):
        PfcPenaltyModel(retransmit_latency=-1.0)
    p = PfcPenaltyModel(pause_per_excess=0.1, max_pause_fraction=0.3)
    assert p.pause_fraction(1.0) == 0.0
    assert p.pause_fraction(2.0) == pytest.approx(0.1)
    assert p.pause_fraction(100.0) == pytest.approx(0.3)  # capped


def test_pfc_penalty_kicks_in_at_three_flows_on_split_uplink():
    # Port splitting (§3.6): a 2x-rate uplink absorbs two NIC-rate flows;
    # a penalty requires 3+ colliding flows.
    penalty = PfcPenaltyModel()
    shared = Link(src="tor", dst="agg", bandwidth=2.0, latency=1e-6)
    for n_flows, expect_paused in ((2, 0), (3, 3)):
        flows = [Flow(i, [shared], demand=1.0) for i in range(n_flows)]
        cost = route_step(flows, RING_SOFTWARE_LATENCY, 1.0, penalty).cost(1e6)
        assert cost.paused_flows == expect_paused


def test_utilization_reports_effective_rates():
    # A lone flow owning a 10 B/s link at cc_efficiency 0.5 only ever
    # moves 5 B/s — the reported utilization must say so, not echo the
    # pre-derate fair-share allocation (which would claim 1.0).
    link = Link(src="a", dst="b", bandwidth=10.0, latency=1e-6)
    flows = [Flow(0, [link], demand=10.0)]
    cost = route_step(flows, RING_SOFTWARE_LATENCY, 0.5, None).cost(1e3)
    assert cost.utilization == pytest.approx(0.5)


def test_offered_load_pauses_and_derates_utilization():
    # demand 30 on a 10 B/s link: the raw 3.0x offered ratio triggers the
    # PFC pause (0.1/excess -> 20% paused), and the reported utilization
    # then reflects the rate actually charged after derating.
    penalty = PfcPenaltyModel(pause_per_excess=0.1, retransmit_latency=0.0)
    link = Link(src="a", dst="b", bandwidth=10.0, latency=1e-6)
    flows = [Flow(0, [link], demand=30.0)]
    cost = route_step(flows, RING_SOFTWARE_LATENCY, 1.0, penalty).cost(1e3)
    assert cost.paused_flows == 1
    assert cost.utilization == pytest.approx(10.0 * 0.8 / 10.0)


def test_unbounded_demand_never_pays_pfc():
    flows = ring_flows(_fabric(), range(8), float("inf"))
    cost = route_step(flows, RING_SOFTWARE_LATENCY, 1.0, PfcPenaltyModel()).cost(1e6)
    assert cost.paused_flows == 0


# -- backend dispatch ----------------------------------------------------------


def test_validate_backend():
    assert set(COST_BACKENDS) == {"analytic", "fabric"}
    for backend in COST_BACKENDS:
        assert validate_backend(backend) == backend
    with pytest.raises(ValueError):
        validate_backend("quantum")


def test_group_comm_model_backend():
    plan = ParallelPlan(dp=4, tp=8, pp=2)
    analytic = build_comm_model(plan, backend="analytic")
    fab = build_comm_model(plan, backend="fabric")
    # Single-pod DP ring: the two backends agree (degeneration).
    size = 1e9
    assert fab.dp_collective_time("all_gather", size) == pytest.approx(
        analytic.dp_collective_time("all_gather", size), rel=1e-6
    )
    with pytest.raises(ValueError):
        build_comm_model(plan, backend="exact")


def test_group_comm_model_fabric_p2p():
    # PP neighbours across nodes route through the fabric model.
    plan = ParallelPlan(dp=2, tp=8, pp=4)
    fab = build_comm_model(plan, backend="fabric")
    analytic = build_comm_model(plan, backend="analytic")
    assert fab.pp_p2p_time(50e6) == pytest.approx(analytic.pp_p2p_time(50e6), rel=0.05)


def test_iteration_engine_backend_roundtrip():
    from repro.model import MODEL_CATALOG
    from repro.training import IterationEngine

    model = MODEL_CATALOG["gpt-7b"]
    # tp=8 puts each DP-group rank on its own node (group stride = tp), so
    # the single-pod ring degenerates exactly to the analytic price.
    plan = ParallelPlan(dp=2, tp=8, pp=1, vpp=1, zero_stage=2)
    from repro.core.features import MEGASCALE_ISO_BATCH

    a = IterationEngine(model, plan, MEGASCALE_ISO_BATCH).simulate(32)
    f = IterationEngine(model, plan, MEGASCALE_ISO_BATCH, backend="fabric").simulate(32)
    assert f.iteration_time == pytest.approx(a.iteration_time, rel=1e-6)
    with pytest.raises(ValueError):
        IterationEngine(model, plan, MEGASCALE_ISO_BATCH, backend="nope")


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    name=st.sampled_from(["gpt-7b", "gpt-13b", "gpt-30b"]),
    n_gpus=st.sampled_from([16, 32, 64, 128, 256, 512]),
)
def test_backends_agree_under_one_tor(data, name, n_gpus):
    # Up to 512 GPUs every rank sits under one ToR set (one 64-node pod):
    # no ECMP conflict, no shared link, so every routed ring and hop
    # degenerates to alpha-beta, and a one-host ring is NVLink-priced on
    # both backends.  Whole iterations agree to rounding.
    from repro.core.features import MEGASCALE_ISO_BATCH
    from repro.hardware import AMPERE
    from repro.model import MODEL_CATALOG
    from repro.parallel.tuner import candidate_plans, feasible
    from repro.training import IterationEngine

    model, batch = MODEL_CATALOG[name], 4 * n_gpus
    plans = [p for p in candidate_plans(model, n_gpus) if feasible(model, p, AMPERE, batch)]
    plan = data.draw(st.sampled_from(plans))
    a = IterationEngine(model, plan, MEGASCALE_ISO_BATCH).simulate(batch)
    f = IterationEngine(model, plan, MEGASCALE_ISO_BATCH, backend="fabric").simulate(batch)
    assert abs(f.iteration_time - a.iteration_time) <= 1e-15 * a.iteration_time


def test_one_host_dp_ring_is_priced_at_nvlink_on_both_backends():
    # tp=1, dp=8: the whole DP ring shares one host, so no flow crosses
    # the fabric; the ring moves over NVLink, as the analytic model says.
    plan = ParallelPlan(dp=8, tp=1, pp=2)
    analytic = build_comm_model(plan, backend="analytic")
    fab = build_comm_model(plan, backend="fabric")
    for kind in ("all_gather", "reduce_scatter", "all_reduce"):
        expected = analytic.dp_collective_time(kind, 2e9)
        assert expected > 1e-3  # bytes over NVLink, not 7 latency-only steps
        assert fab.dp_collective_time(kind, 2e9) == expected
        assert fab.dp_collective_floor(kind, 2e9) == expected


# -- floors: admissible prices without routing -----------------------------------

FLOOR_FABRICS = {
    # Four pods of four nodes: cross-pod ECMP over 8 aggs x 4 uplinks.
    "small": dict(n_nodes=16, nodes_per_pod=4),
    # One uplink per hop and two aggs/spines per pod: flows collide.
    "narrow": dict(
        n_nodes=16, nodes_per_pod=4, aggs_per_pod=2, n_spines=2,
        tor_uplinks_per_agg=1, agg_uplinks_per_spine=1,
    ),
}


def _floor_model(shape: str) -> GroupCommModel:
    # 16 nodes x 8 GPUs: rank r sits on node r // 8.
    return GroupCommModel(
        plan=ParallelPlan(dp=16, tp=8, pp=1),
        fabric=ClosFabric(**FLOOR_FABRICS[shape]),
        backend="fabric",
    )


@settings(max_examples=300, deadline=None)
@given(
    shape=st.sampled_from(sorted(FLOOR_FABRICS)),
    ranks=st.lists(st.integers(0, 127), min_size=2, max_size=16),
    size=st.floats(min_value=0.0, max_value=4e9),
    kind=st.sampled_from(["all_gather", "reduce_scatter", "all_reduce"]),
)
def test_fabric_floors_never_exceed_routed_prices(shape, ranks, size, kind):
    # Random rings, nodes repeated and spread over pods, so links are
    # shared (ECMP collisions, repeated NICs) and PFC pauses occur: the
    # floor holds with no tolerance, and so does the p2p floor.
    model = _floor_model(shape)
    assert model.dp_collective_floor(kind, size, ranks) <= model.dp_collective_time(
        kind, size, ranks
    )
    src, dst = ranks[0], ranks[1]
    assert model.pp_p2p_floor(size, src, dst) <= model.pp_p2p_time(size, src, dst)


def test_fabric_floor_is_exact_on_an_uncongested_pod_and_below_a_congested_ring():
    model = _floor_model("narrow")
    in_pod = range(0, 32, 8)  # nodes 0-3: one pod, one flow per NIC link
    for kind in ("all_gather", "all_reduce"):
        routed = model.dp_collective_time(kind, 1e9, in_pod)
        assert model.dp_collective_floor(kind, 1e9, in_pod) == routed
    striped = [8 * ((i % 4) * 4 + i // 4) for i in range(16)]  # every hop crosses pods
    floor = model.dp_collective_floor("all_gather", 1e9, striped)
    assert floor < model.dp_collective_time("all_gather", 1e9, striped)
    assert model.pp_p2p_floor(1e8, 0, 8) == model.pp_p2p_time(1e8, 0, 8)
    assert model.pp_p2p_floor(1e8, 0, 32) < model.pp_p2p_time(1e8, 0, 32)


def test_one_ring_is_routed_once_for_every_collective_over_it():
    ring = get_cache("fabric_ring")
    reset_cache(ring)
    reset_cache(get_cache("fabric_collective_cost"))
    model = build_comm_model(ParallelPlan(dp=16, tp=8, pp=2), backend="fabric")
    for kind, size in (("all_gather", 1e9), ("reduce_scatter", 1e9), ("all_gather", 3e8)):
        model.dp_collective_time(kind, size)
    assert ring.misses == 1 and ring.hits == 2
    # The shared routing prices each size exactly as a fresh routing does.
    fresh = route_step(
        ring_flows(model.fabric, tuple(range(16)), model.node_spec.nic_spec.line_rate),
        RING_SOFTWARE_LATENCY, DEFAULT_CC_EFFICIENCY, PfcPenaltyModel(),
    ).cost(3e8 / 16)
    assert model.dp_collective_time("all_gather", 3e8) == 15 * fresh.duration


# -- memoization ---------------------------------------------------------------


def test_fabric_cost_memoized_by_fingerprint():
    cache = get_cache("fabric_collective_cost")
    reset_cache(cache)
    fabric = _fabric(n_nodes=8, nodes_per_pod=8)
    nodes = (0, 1, 2, 3)
    first = fabric_collective_cost("all_gather", 1e9, nodes, fabric)
    assert cache.misses == 1 and cache.hits == 0
    again = fabric_collective_cost("all_gather", 1e9, nodes, fabric)
    assert cache.hits == 1
    assert again is first
    # An identically-configured healthy fabric shares the entry...
    twin = _fabric(n_nodes=8, nodes_per_pod=8)
    fabric_collective_cost("all_gather", 1e9, nodes, twin)
    assert cache.hits == 2
    # ...but a degraded one never does, even when the downed link (a ToR
    # uplink) is off this collective's intra-pod paths.
    twin.set_link_state("tor0.0", "agg0.0", False)
    fabric_collective_cost("all_gather", 1e9, nodes, twin)
    assert cache.misses == 2


def test_pod_translation_is_not_deduped():
    # Pod-to-pod translation is NOT price-preserving (ECMP hashes depend
    # on switch names), so pod-1 rings key separately from pod-0 rings.
    cache = get_cache("fabric_collective_cost")
    reset_cache(cache)
    fabric = _fabric(n_nodes=16, nodes_per_pod=8)
    fabric_collective_cost("all_gather", 1e9, (0, 1, 2, 3), fabric)
    fabric_collective_cost("all_gather", 1e9, (8, 9, 10, 11), fabric)
    assert cache.misses == 2


def test_fingerprint_follows_set_link_state_down_and_back_up():
    fabric = _fabric(n_nodes=8, nodes_per_pod=8)
    bundle = fabric.parallel_links[("tor0.0", "agg0.0")]
    clean = fabric.fingerprint()
    fabric.set_link_state("tor0.0", "agg0.0", False, index=1)
    degraded = fabric.fingerprint()
    assert degraded != clean and fabric.degraded()
    assert [link.up for link in bundle] == [True, False, True, True]
    fabric.set_link_state("tor0.0", "agg0.0", False, index=1)  # idempotent
    assert fabric.fingerprint() == degraded
    fabric.set_link_state("tor0.0", "agg0.0", True, index=1)
    assert fabric.fingerprint() == clean and not fabric.degraded()
    assert all(link.up for link in bundle)


def test_fingerprint_is_independent_of_the_order_links_went_down():
    a, b = _fabric(n_nodes=8, nodes_per_pod=8), _fabric(n_nodes=8, nodes_per_pod=8)
    a.set_link_state("tor0.0", "agg0.0", False, index=2)
    a.set_link_state("node1.nic0", "tor0.0", False)
    b.set_link_state("node1.nic0", "tor0.0", False)
    b.set_link_state("tor0.0", "agg0.0", False, index=2)
    assert a.fingerprint() == b.fingerprint()


def test_set_link_state_rejects_unknown_links():
    fabric = _fabric(n_nodes=8, nodes_per_pod=8)
    clean = fabric.fingerprint()
    for src, dst, index in (
        ("tor0.0", "nowhere", 0),  # no such device pair
        ("agg0.0", "tor0.0", 4),  # a 4-link bundle has indices 0..3
        ("node0.nic0", "tor0.0", 1),  # a NIC link is a single link
        ("tor0.0", "agg0.0", -1),
    ):
        with pytest.raises(ValueError, match="no link"):
            fabric.set_link_state(src, dst, False, index=index)
    assert fabric.fingerprint() == clean


def test_direct_link_write_raises_instead_of_caching():
    # Writing ``link.up`` behind the fabric's back leaves the fingerprint
    # healthy, so a price computed now would be cached under the healthy
    # key.  Routing still uses the link, and the flow solver refuses it.
    # Both memos start cold: a warm one would serve the healthy price.
    caches = [get_cache("fabric_collective_cost"), get_cache("fabric_ring")]
    for cache in caches:
        reset_cache(cache)
    fabric = _fabric(n_nodes=8, nodes_per_pod=8)
    fabric.links[("node0.nic0", "tor0.0")].up = False
    assert not fabric.degraded()
    with pytest.raises(RuntimeError, match="down link node0.nic0->tor0.0"):
        fabric_collective_cost("all_gather", 1e9, (0, 1, 2, 3), fabric)
    assert not any(cache.store for cache in caches)


def test_fingerprint_invalidation_survives_pickle():
    import pickle

    fabric = _fabric(n_nodes=8, nodes_per_pod=8)
    clean = fabric.fingerprint()
    fabric.set_link_state("tor0.0", "agg0.0", False)
    clone = pickle.loads(pickle.dumps(fabric))
    assert clone.fingerprint() == fabric.fingerprint() != clean
    assert not clone.parallel_links[("tor0.0", "agg0.0")][0].up
    clone.set_link_state("tor0.0", "agg0.0", True)
    assert clone.fingerprint() == clean
    assert fabric.degraded()  # the original is untouched


def test_simulated_link_outage_busts_the_memo():
    # End-to-end: an outage driven on the simulation clock must flow
    # through the fingerprint into a fresh memo entry, and the healthy
    # entry must come back once the link is up again.
    from repro.sim import Process, Simulator

    cache = get_cache("fabric_collective_cost")
    reset_cache(cache)
    fabric = _fabric(n_nodes=16, nodes_per_pod=8)
    nodes = (0, 1, 2, 3)
    fabric_collective_cost("all_gather", 1e9, nodes, fabric)
    sim = Simulator()

    def outage():
        yield sim.timeout(1.0)
        fabric.set_link_state("tor0.0", "agg0.0", False)
        yield sim.timeout(5.0)
        fabric.set_link_state("tor0.0", "agg0.0", True)

    Process(sim, outage())
    sim.run(until=2.0)  # mid-outage
    assert fabric.degraded()
    fabric_collective_cost("all_gather", 1e9, nodes, fabric)
    assert cache.misses == 2 and cache.hits == 0
    sim.run()  # the link comes back
    assert not fabric.degraded()
    fabric_collective_cost("all_gather", 1e9, nodes, fabric)
    assert cache.hits == 1  # healthy fingerprint (and entry) restored


def test_fabric_memo_telemetry_only_on_fresh_compute():
    from repro.observability import TelemetryHub

    cache = get_cache("fabric_collective_cost")
    reset_cache(cache)
    fabric = _fabric(n_nodes=8, nodes_per_pod=8)
    hub = TelemetryHub(job_name="t")
    fabric_collective_cost("reduce_scatter", 1e8, (0, 1), fabric, hub=hub)
    fabric_collective_cost("reduce_scatter", 1e8, (0, 1), fabric, hub=hub)
    assert counter(hub.metrics, "collectives.fabric_priced", kind="reduce_scatter") == 1.0
    assert len(hub.spans("collectives")) == 1


def test_runtime_executes_an_ideal_transport():
    # The event runtime prices the shared routed step with uncapped
    # flows, full efficiency and no PFC, so no flow ever pauses.
    from repro.collectives.runtime import RingCollectiveRuntime

    fabric = _fabric(n_nodes=8, nodes_per_pod=8)
    runtime = RingCollectiveRuntime(fabric, node_of_rank=list(range(4)))
    run = runtime.run("all_gather", 1e9)
    assert run.steps[0].paused_flows == 0
