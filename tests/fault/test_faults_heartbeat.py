"""Tests for the fault catalog and the live oracle's heartbeat rules."""

import numpy as np
import pytest

from repro.fault import (
    FAULT_CATALOG,
    LEAF_LINK_FAULT,
    RACK_POWER_FAULT,
    TOR_SWITCH_FAULT,
    FaultInjector,
)
from repro.fault.faults import CUDA_ERROR, SLOW_HOST, Manifestation
from tests.oracles.live_driver import EFFECTS, HEALTHY_RDMA_RATE, Beat, Host, LiveDriver, verdict


def test_catalog_covers_all_manifestations():
    kinds = {k.manifestation for k in FAULT_CATALOG}
    assert kinds == {Manifestation.EXPLICIT, Manifestation.HANG, Manifestation.SILENT}


def test_catalog_auto_detectable_majority():
    # §6.2: > 90% of faults are auto-detected; the rate-weighted mix
    # of auto-detectable kinds must exceed that.
    total = sum(k.weekly_rate_per_node for k in FAULT_CATALOG)
    auto = sum(k.weekly_rate_per_node for k in FAULT_CATALOG if k.auto_detectable)
    assert auto / total > 0.9


def test_fault_application_mutates_node():
    host = Host(0)
    EFFECTS[CUDA_ERROR.name](host)
    assert not host.healthy
    host2 = Host(1)
    EFFECTS[SLOW_HOST.name](host2)
    assert host2.speed_factor == pytest.approx(0.9)


def test_injector_produces_expected_volume():
    # ~1536 nodes over 4 weeks: the paper's "over 100" restarts.
    injector = FaultInjector(n_nodes=1536, rng=np.random.default_rng(0))
    horizon = 4 * 7 * 86400.0
    events = injector.sample(horizon)
    expected = injector.cluster_rate_per_second() * horizon
    assert expected == pytest.approx(len(events), rel=0.25)
    assert len(events) > 80


def test_injector_events_time_ordered_and_in_range():
    injector = FaultInjector(n_nodes=100, rng=np.random.default_rng(1))
    events = injector.sample(7 * 86400.0)
    times = [e.time for e in events]
    assert times == sorted(times)
    assert all(0 <= e.node_index < 100 for e in events)


def test_auto_detectable_fraction_of_sample():
    injector = FaultInjector(n_nodes=1536, rng=np.random.default_rng(2))
    events = injector.sample(4 * 7 * 86400.0)
    assert sum(e.kind.auto_detectable for e in events) / len(events) > 0.85


def test_injector_validation():
    with pytest.raises(ValueError):
        FaultInjector(n_nodes=0)
    with pytest.raises(ValueError):
        FaultInjector(n_nodes=1, rate_multiplier=0)
    with pytest.raises(ValueError):
        FaultInjector(n_nodes=1).sample(0)


# -- heartbeat rules ----------------------------------------------------------


def _beat(t, status="running", rate=HEALTHY_RDMA_RATE):
    return Beat(time=t, status=status, log="", rdma_rate=rate)


def test_effects_cover_every_fault_kind():
    kinds = FAULT_CATALOG + [RACK_POWER_FAULT, TOR_SWITCH_FAULT, LEAF_LINK_FAULT]
    assert set(EFFECTS) == {kind.name for kind in kinds}


def test_detector_explicit_error_status():
    assert verdict([_beat(0.0, status="error")]) == "explicit-error"


def test_detector_traffic_ceased_means_hang():
    history = [_beat(float(t * 10)) for t in range(6)] + [_beat(60.0, rate=0.0)]
    assert verdict(history) == "traffic-ceased"
    # No healthy baseline: a node that never had traffic has not lost it.
    assert verdict([_beat(0.0, rate=0.0)]) is None


def test_detector_healthy_node_clean():
    assert verdict([_beat(float(t * 10)) for t in range(6)]) is None
    assert verdict([]) is None


def test_detector_sweep():
    driver = LiveDriver(2)
    victim = 1
    driver.sim.run(until=15.0)
    driver.inject(victim, CUDA_ERROR)
    driver.sim.run(until=30.0)
    assert driver.check() == {victim: "explicit-error"}
