"""Additional property-based tests: transfers, hierarchy, stragglers."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.collectives.hierarchical import hierarchical_all_reduce
from repro.network import Link
from repro.network.transfers import TransferEngine
from repro.sim import Simulator


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(st.floats(min_value=1e6, max_value=5e9), min_size=1, max_size=6),
    st.floats(min_value=1e8, max_value=1e10),
)
def test_transfer_engine_conserves_bytes_and_orders_finishes(sizes, bandwidth):
    sim = Simulator()
    engine = TransferEngine(sim)
    link = Link(src="a", dst="b", bandwidth=bandwidth)
    transfers = [engine.submit([link], size=s) for s in sizes]
    engine.run_to_completion()
    # All complete, carrying exactly the requested bytes.
    assert all(t.finished_at is not None for t in transfers)
    assert link.bytes_carried == pytest.approx(sum(sizes), rel=1e-3)
    # With simultaneous starts and fair sharing, smaller transfers never
    # finish after strictly larger ones.
    by_size = sorted(transfers, key=lambda t: t.size)
    finishes = [t.finished_at for t in by_size]
    assert all(a <= b + 1e-9 for a, b in zip(finishes, finishes[1:]))
    # Makespan is bounded by serial execution and at least ideal sharing.
    total = sum(sizes)
    assert max(finishes) == pytest.approx(total / bandwidth, rel=1e-3)


@given(
    st.floats(min_value=1.0, max_value=1e11),
    st.integers(min_value=1, max_value=256),
    st.integers(min_value=1, max_value=8),
)
def test_hierarchical_components_nonnegative_and_monotone(size, n_nodes, gpn):
    cost = hierarchical_all_reduce(
        size, n_nodes, gpn, intra_bandwidth=250e9, inter_bandwidth=22.5e9
    )
    assert cost.intra_reduce >= 0 and cost.inter_phase >= 0 and cost.intra_broadcast >= 0
    bigger = hierarchical_all_reduce(
        size * 2, n_nodes, gpn, intra_bandwidth=250e9, inter_bandwidth=22.5e9
    )
    assert bigger.total >= cost.total


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_straggler_sampling_statistics(seed):
    from repro.training import StragglerModel

    model = StragglerModel(fraction=0.25, slowdown=0.9, rng=np.random.default_rng(seed))
    factors = model.sample_speed_factors(400)
    slow_fraction = float((factors < 1.0).mean())
    assert 0.10 < slow_fraction < 0.45  # binomial around 0.25
    assert model.job_speed_factor(400) in (0.9, 1.0)
