"""Property-based tests (hypothesis) on core invariants.

These cover the structural guarantees the rest of the system leans on:
the event loop's ordering, pipeline-schedule completeness, max-min
fairness, collective cost identities, rank-mapping bijectivity, ZeRO
accounting, and causality of the numpy LM.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.collectives import ring_all_gather, ring_all_reduce, ring_reduce_scatter
from repro.model import GPT_13B
from repro.model.memory import memory_breakdown
from repro.network import Flow, Link, max_min_fair_rates
from repro.parallel import ParallelPlan, interleaved_schedule
from repro.sim import Simulator
from tests.oracles.pipeline import backward_dependency, forward_dependency


# -- event loop ---------------------------------------------------------------


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=60))
def test_events_always_fire_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.schedule(d, lambda d=d: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert sim.now == max(delays)


# -- pipeline schedules ----------------------------------------------------------


schedule_params = st.tuples(
    st.integers(min_value=1, max_value=6),  # p
    st.integers(min_value=1, max_value=4),  # v
    st.integers(min_value=1, max_value=4),  # m multiplier
)


@given(schedule_params)
def test_interleaved_schedule_complete_and_unique(params):
    p, v, k = params
    m = p * k  # interleaving requires m % p == 0
    for stage in range(p):
        tasks = interleaved_schedule(p, v, m, stage)
        assert len(tasks) == 2 * m * v
        keys = {t.key for t in tasks}
        assert len(keys) == len(tasks)
        # Every (microbatch, chunk) appears exactly once per direction.
        expected = {(kind, mb, c) for kind in "FB" for mb in range(m) for c in range(v)}
        assert keys == expected


@given(schedule_params)
def test_backward_never_precedes_own_forward(params):
    p, v, k = params
    m = p * k
    for stage in range(p):
        seen = set()
        for task in interleaved_schedule(p, v, m, stage):
            if task.kind == "F":
                seen.add((task.microbatch, task.chunk))
            else:
                assert (task.microbatch, task.chunk) in seen


@given(schedule_params, st.data())
def test_dependency_graph_is_acyclic_chain(params, data):
    # Walking forward dependencies from any task terminates at the input.
    p, v, k = params
    m = p * k
    stage = data.draw(st.integers(min_value=0, max_value=p - 1))
    tasks = interleaved_schedule(p, v, m, stage)
    task = data.draw(st.sampled_from([t for t in tasks if t.kind == "F"]))
    hops = 0
    current = (stage, task)
    while True:
        dep = forward_dependency(p, v, current[0], current[1])
        if dep is None:
            break
        current = dep
        hops += 1
        assert hops <= p * v  # chain length bounded by virtual stages


@given(schedule_params, st.data())
def test_backward_dependency_chain_bounded(params, data):
    p, v, k = params
    m = p * k
    stage = data.draw(st.integers(min_value=0, max_value=p - 1))
    task = data.draw(
        st.sampled_from([t for t in interleaved_schedule(p, v, m, stage) if t.kind == "B"])
    )
    hops = 0
    current = (stage, task)
    while True:
        dep = backward_dependency(p, v, current[0], current[1])
        if dep is None:
            break
        current = dep
        hops += 1
        assert hops <= p * v


# -- rank mapping ---------------------------------------------------------------


@st.composite
def plan_strategy_fn(draw):
    pp = draw(st.integers(min_value=1, max_value=6))
    vpp = draw(st.integers(min_value=1, max_value=3)) if pp > 1 else 1
    return ParallelPlan(
        dp=draw(st.integers(min_value=1, max_value=6)),
        tp=draw(st.integers(min_value=1, max_value=8)),
        pp=pp,
        vpp=vpp,
        dp_before_pp=draw(st.booleans()),
    )


plan_strategy = plan_strategy_fn()


@given(plan_strategy)
def test_rank_coords_bijective(plan):
    seen = set()
    for rank in range(plan.world_size):
        coords = plan.coords(rank)
        assert plan.rank_of(*coords) == rank
        seen.add(coords)
    assert len(seen) == plan.world_size


@given(plan_strategy)
def test_groups_partition_world(plan):
    ranks = range(plan.world_size)
    pp_groups = {
        tuple(plan.rank_of(p, d, t) for p in range(plan.pp))
        for d in range(plan.dp)
        for t in range(plan.tp)
    }
    tp_groups = {tuple(plan.tp_group(r)) for r in ranks}
    dp_groups = {tuple(plan.dp_group(r)) for r in ranks}
    for groups in (tp_groups, dp_groups, pp_groups):
        flat = sorted(r for g in groups for r in g)
        assert flat == list(range(plan.world_size))


@given(plan_strategy)
def test_pipeline_neighbours_form_a_cycle(plan):
    rank = 0
    current = rank
    for _ in range(plan.pp):
        current = plan.next_pp_rank(current)
    assert current == rank


# -- collectives ------------------------------------------------------------------


@given(
    st.floats(min_value=1.0, max_value=1e12),
    st.integers(min_value=2, max_value=512),
    st.floats(min_value=1e6, max_value=1e12),
)
def test_allreduce_equals_rs_plus_ag(size, n, bw):
    ar = ring_all_reduce(size, n, bw)
    rs = ring_reduce_scatter(size, n, bw)
    ag = ring_all_gather(size, n, bw)
    assert ar == pytest.approx(rs + ag, rel=1e-9)
    assert rs == pytest.approx(ag, rel=1e-9)


@given(
    st.floats(min_value=1.0, max_value=1e12),
    st.integers(min_value=2, max_value=256),
    st.floats(min_value=1e6, max_value=1e12),
)
def test_collective_cost_monotone_in_size_and_bandwidth(size, n, bw):
    assert ring_all_reduce(size, n, bw) <= ring_all_reduce(size * 2, n, bw)
    assert ring_all_reduce(size, n, bw) >= ring_all_reduce(size, n, bw * 2)


# -- max-min fairness ---------------------------------------------------------------


@settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.floats(min_value=1e6, max_value=1e11),
)
def test_max_min_single_link_conserves_capacity(n_flows, capacity):
    link = Link(src="a", dst="b", bandwidth=capacity)
    flows = [Flow(flow_id=i, path=[link]) for i in range(n_flows)]
    rates = max_min_fair_rates(flows)
    total = sum(rates.values())
    assert total <= capacity * (1 + 1e-9)
    assert total == pytest.approx(capacity, rel=1e-6)  # work conserving
    # Fairness: equal unconstrained flows get equal rates.
    values = list(rates.values())
    assert max(values) == pytest.approx(min(values), rel=1e-6)


@settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(st.lists(st.floats(min_value=1e6, max_value=1e10), min_size=1, max_size=8))
def test_max_min_demand_limited_flows_get_their_demand(demands):
    link = Link(src="a", dst="b", bandwidth=2e11)  # never the bottleneck
    flows = [Flow(flow_id=i, path=[link], demand=d) for i, d in enumerate(demands)]
    rates = max_min_fair_rates(flows)
    for i, d in enumerate(demands):
        assert rates[i] == pytest.approx(d, rel=1e-9)


# -- memory model --------------------------------------------------------------------


@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=32),
)
def test_memory_decreases_with_more_sharding(tp, pp, dp):
    base = memory_breakdown(GPT_13B, tp=tp, pp=pp, dp=dp, micro_batch=1)
    more_tp = memory_breakdown(GPT_13B, tp=tp * 2, pp=pp, dp=dp, micro_batch=1)
    assert more_tp.parameters < base.parameters
    assert more_tp.total < base.total
    more_dp = memory_breakdown(GPT_13B, tp=tp, pp=pp, dp=dp * 2, micro_batch=1)
    assert more_dp.optimizer_states <= base.optimizer_states


# -- tiny LM causality ------------------------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),  # layers
    st.booleans(),  # parallel block
    st.integers(min_value=1, max_value=8),  # window (None handled below)
)
def test_lm_never_attends_to_future(n_layers, parallel_block, window):
    from repro.optim import LmConfig, TinyTransformerLM

    config = LmConfig(
        vocab_size=13,
        d_model=8,
        n_heads=2,
        n_layers=n_layers,
        seq_len=6,
        parallel_block=parallel_block,
        attention_window=window,
        dtype=np.float64,
    )
    model = TinyTransformerLM(config, seed=0)
    base = np.zeros((1, 6), dtype=np.int64)
    changed = base.copy()
    changed[0, -1] = 5  # change only the last token
    la, _ = model.forward(base)
    lb, _ = model.forward(changed)
    assert np.allclose(la[0, :-1], lb[0, :-1])
