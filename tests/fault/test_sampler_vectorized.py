"""The batched fault sampler must reproduce the per-event oracle."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fault.domains import CorrelatedFaultInjector, DomainTopology
from repro.fault.faults import FaultInjector, event_order
from tests.oracles import fault_sampler

WEEK = 7 * 86400.0


def _assert_same_events(ref, vec):
    assert len(ref) == len(vec)
    for a, b in zip(ref, vec):
        assert a.time == b.time
        assert a.kind.name == b.kind.name
        assert a.node_index == b.node_index
        assert a.affected_nodes == b.affected_nodes
        assert a.domain == b.domain


def test_node_injector_matches_oracle_across_seed_grid():
    for seed in range(50):
        ref = fault_sampler.sample(
            FaultInjector(
                n_nodes=128, rng=np.random.default_rng(seed), rate_multiplier=20.0
            ),
            WEEK,
        )
        vec = FaultInjector(
            n_nodes=128, rng=np.random.default_rng(seed), rate_multiplier=20.0
        ).sample(WEEK)
        _assert_same_events(ref, vec)


def test_correlated_injector_matches_oracle_across_seed_grid():
    topology = DomainTopology(n_nodes=128, nodes_per_rack=4, nodes_per_pod=16)
    for seed in range(50):
        ref = fault_sampler.sample(
            CorrelatedFaultInjector(
                n_nodes=128,
                topology=topology,
                rng=np.random.default_rng(seed),
                rate_multiplier=20.0,
            ),
            WEEK,
        )
        vec = CorrelatedFaultInjector(
            n_nodes=128,
            topology=topology,
            rng=np.random.default_rng(seed),
            rate_multiplier=20.0,
        ).sample(WEEK)
        _assert_same_events(ref, vec)


@settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_nodes=st.integers(min_value=1, max_value=512),
    rate_multiplier=st.floats(min_value=0.1, max_value=100.0),
    weeks=st.floats(min_value=0.05, max_value=4.0),
)
def test_sampler_equivalence_property(seed, n_nodes, rate_multiplier, weeks):
    ref = fault_sampler.sample(
        FaultInjector(
            n_nodes=n_nodes,
            rng=np.random.default_rng(seed),
            rate_multiplier=rate_multiplier,
        ),
        weeks * WEEK,
    )
    vec = FaultInjector(
        n_nodes=n_nodes,
        rng=np.random.default_rng(seed),
        rate_multiplier=rate_multiplier,
    ).sample(weeks * WEEK)
    _assert_same_events(ref, vec)


def test_sample_is_time_ordered_and_in_horizon():
    injector = CorrelatedFaultInjector(
        n_nodes=64, rng=np.random.default_rng(7), rate_multiplier=50.0
    )
    events = injector.sample(WEEK)
    assert events == sorted(events, key=event_order)
    assert all(0.0 <= e.time < WEEK for e in events)
    assert all(0 <= e.node_index < 64 for e in events)


def test_reference_sampler_is_seed_deterministic():
    runs = [
        fault_sampler.sample(FaultInjector(n_nodes=32, rng=np.random.default_rng(3)), WEEK)
        for _ in range(2)
    ]
    _assert_same_events(runs[0], runs[1])
