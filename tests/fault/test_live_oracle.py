"""The heartbeat mechanism bounds ``detection_latency`` (§4.1–4.3).

``ProductionRun`` and ``ClusterScheduler`` price a fault's detection
with one draw of :func:`repro.fault.detection_latency`;
``tests/oracles/live_driver.py`` runs the mechanism that draw abstracts.
The two disagree: the mechanism flags an explicit fault within one
heartbeat interval plus delivery and a hang at the next beat, while the
draw puts them at 2 s to 2 s + h and at the NCCL timeout (120 s) to
120 s + h.  So the property is one-sided: a window never closes before
the mechanism has flagged its fault, and no silent fault trips a rule
before its window opens.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fault import (
    FAULT_CATALOG,
    LEAF_LINK_FAULT,
    RACK_POWER_FAULT,
    TOR_SWITCH_FAULT,
    FaultEvent,
    Manifestation,
    ProductionRunConfig,
    detection_latency,
)
from repro.fault.faults import CUDA_ERROR, NCCL_HANG
from tests.oracles.live_driver import DELIVERY_LATENCY, LiveDriver, self_check

CONFIG = ProductionRunConfig()
H = CONFIG.heartbeat_interval
KINDS = FAULT_CATALOG + [RACK_POWER_FAULT, TOR_SWITCH_FAULT, LEAF_LINK_FAULT]
AUTO_VERDICT = {Manifestation.EXPLICIT: "explicit-error", Manifestation.HANG: "traffic-ceased"}


class _Edge:
    """A generator stand-in whose every uniform draw lands on one end."""

    def __init__(self, top):
        self.top = top

    def uniform(self, low, high):
        return high if self.top else low


def window(kind):
    """(floor, top) of ``detection_latency`` for a ``kind`` fault."""
    event = FaultEvent(time=0.0, kind=kind, node_index=0)
    return tuple(detection_latency(event, _Edge(top), CONFIG) for top in (False, True))


@settings(max_examples=100, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=3),
    phase=st.floats(0.0, H, exclude_max=True),
    n_nodes=st.integers(3, 6),
    spares=st.integers(0, 3),
)
@example(kinds=[CUDA_ERROR], phase=0.0, n_nodes=3, spares=1)  # just after a beat
def test_detection_latency_never_undercuts_the_heartbeat_mechanism(kinds, phase, n_nodes, spares):
    driver = LiveDriver(n_nodes, spares, heartbeat_interval=H)
    injected_at = H + phase  # after every node's first, healthy beat
    driver.sim.run(until=injected_at)
    victims = dict(zip(driver.daemons, kinds))
    for node_id, kind in victims.items():
        driver.inject(node_id, kind)
    windows = {node_id: window(kind) for node_id, kind in victims.items()}
    driver.sim.run(
        until=injected_at
        + max(top if victims[n].auto_detectable else floor for n, (floor, top) in windows.items())
    )

    assert set(driver.flags) <= set(victims)
    for node_id, kind in victims.items():
        floor, top = windows[node_id]
        flag = driver.flags.get(node_id)
        if kind.auto_detectable:
            assert top - floor == pytest.approx(H)
            assert flag is not None and flag[1] == AUTO_VERDICT[kind.manifestation]
            assert flag[0] - injected_at <= top
        else:
            assert flag is None or flag[0] - injected_at >= floor
            assert self_check(driver.daemons[node_id].host) is not None

    recovered_at = driver.sim.now
    assert sorted(driver.recover()) == sorted(victims)
    assert len(driver.shed) == max(0, len(victims) - spares)
    assert set(driver.shed) <= set(victims)
    for quarter in range(13):
        driver.sim.run(until=recovered_at + quarter * H / 4)
        assert driver.check() == {}
    assert all(at <= recovered_at for at, _ in driver.flags.values())


@pytest.mark.parametrize("kind", [CUDA_ERROR, NCCL_HANG], ids=lambda kind: kind.name)
def test_fault_just_after_a_beat_is_flagged_one_interval_plus_delivery_later(kind):
    driver = LiveDriver(3, heartbeat_interval=H)
    driver.sim.run(until=2 * H)  # every node's beat at 2h is on its way
    victim = next(iter(driver.daemons))
    driver.inject(victim, kind)
    driver.sim.run(until=4 * H)
    at, found = driver.flags[victim]
    assert found == AUTO_VERDICT[kind.manifestation]
    assert at - 2 * H == pytest.approx(H + DELIVERY_LATENCY)
    assert at - 2 * H <= window(kind)[1]
