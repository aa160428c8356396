"""The ``Link``-list ring router and dict-keyed step pricer: the oracle for
the index router of :mod:`repro.collectives.fabric`.

:func:`ring_flows` routes every neighbour pair of a ring through
:meth:`repro.network.topology.ClosFabric.path` as a
:class:`~repro.network.flow.Flow` of ``Link`` objects, and
:func:`route_step` prices one step with dicts keyed by ``Link``, after
one :func:`~repro.network.flow.max_min_fair_rates` solve.  This is how
the fabric backend routed and priced every ring step before it moved to
link ids.  :func:`routed_step` composes the two; the properties in
``tests/collectives/test_ring_router.py`` hold
:func:`repro.collectives.fabric.ring_route` plus
:func:`~repro.collectives.fabric.price_route` to it with ``==`` — the
same ``RoutedStep``, or the same exception type and message.
:func:`step_cost` is the per-flow loop behind the array expression of
:meth:`repro.collectives.fabric.RoutedStep.cost`.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.collectives.fabric import PfcPenaltyModel, RoutedStep
from repro.network.flow import Flow, max_min_fair_rates
from repro.network.link import Link
from repro.network.topology import ClosFabric


def ring_flows(fabric: ClosFabric, nodes: Sequence[int], demand: float) -> List[Flow]:
    """The routed flows of one step of the ring over ``nodes``.

    Ring position i sends to position i+1 on rail 0 with ECMP flow id i,
    each flow offering ``demand`` bytes/s.  Same-host pairs move over
    NVLink, not the fabric, and get no flow.
    """
    n = len(nodes)
    flows: List[Flow] = []
    for i, src in enumerate(nodes):
        dst = nodes[(i + 1) % n]
        if src != dst:
            flows.append(Flow(i, fabric.path(src, dst, rail=0, flow_id=i), demand))
    return flows


def route_step(
    flows: Sequence[Flow],
    software_latency: float,
    cc_efficiency: float,
    penalty: Optional[PfcPenaltyModel],
) -> RoutedStep:
    """Water-fill one ring step whose pair transfers are ``flows``."""
    if not 0 < cc_efficiency <= 1:
        raise ValueError("cc_efficiency must be in (0, 1]")
    if not flows:
        return RoutedStep(0, 0.0, 0, software_latency, ())
    max_min_fair_rates(flows)

    load: Dict[Link, int] = {}
    for flow in flows:
        for link in flow.path:
            load[link] = load.get(link, 0) + 1
    max_link_load = max(load.values())

    paused = 0
    priced: List[Tuple[int, float, float]] = []
    effective: Dict[Link, float] = {}
    for flow in flows:
        ratio = 0.0
        if math.isfinite(flow.demand):
            ratio = max(load[l] * flow.demand / l.bandwidth for l in flow.path)
        pause = penalty.pause_fraction(ratio) if penalty is not None else 0.0
        if pause > 0.0:
            paused += 1
        rate = flow.rate * cc_efficiency * (1.0 - pause)
        for link in flow.path:
            effective[link] = effective.get(link, 0.0) + rate
        latency = sum(l.latency for l in flow.path) + software_latency
        if pause > 0.0:
            latency += penalty.retransmit_latency
        priced.append((flow.flow_id, rate, latency))
    utilization = max(min(1.0, effective[l] / l.bandwidth) for l in load)
    return RoutedStep(
        max_link_load=max_link_load,
        utilization=utilization,
        paused_flows=paused,
        software_latency=software_latency,
        flows=tuple(priced),
    )


def routed_step(
    fabric: ClosFabric,
    nodes: Sequence[int],
    demand: float,
    software_latency: float,
    cc_efficiency: float,
    penalty: Optional[PfcPenaltyModel],
) -> RoutedStep:
    """One step of the ring over ``nodes``, routed and priced as before link ids."""
    return route_step(
        ring_flows(fabric, nodes, demand), software_latency, cc_efficiency, penalty
    )


def step_cost(step: RoutedStep, segment_bytes: float) -> Tuple[float, int]:
    """(duration, slowest flow id) of ``step`` with every flow moving
    ``segment_bytes``, walking its flows in order: the first flow to
    reach the largest time sets the duration."""
    duration, slowest = 0.0, 0
    for flow_id, rate, latency in step.flows:
        t = (segment_bytes / rate if segment_bytes > 0 else 0.0) + latency
        if t > duration:
            duration, slowest = t, flow_id
    return duration, slowest
