"""Congestion-control algorithms and a shared-bottleneck fluid simulator.

The paper (§3.6) observes that default DCQCN suffers under all-to-all
incast: queues grow until PFC fires, head-of-line blocking follows, and
throughput collapses.  MegaScale's custom algorithm combines Swift's
precise RTT measurement with DCQCN's fast ECN response.

We reproduce this with a time-stepped fluid model: ``n_flows`` senders
share one bottleneck; each algorithm adjusts per-flow rates from the
signals it uses (ECN marks, measured RTT).  Reported metrics: goodput,
mean queue depth, and PFC pause fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .pfc import PfcState


class CongestionControl:
    """Interface: one instance controls one flow's sending rate."""

    name = "base"

    def __init__(self, line_rate: float, base_rtt: float) -> None:
        self.line_rate = line_rate
        self.base_rtt = base_rtt
        self.rate = line_rate * 0.5  # slow-ish start


class DcqcnControl(CongestionControl):
    """DCQCN: multiplicative decrease on ECN, DCQCN-style recovery.

    Reacts *only* to ECN marks; the mark threshold is deep enough that by
    the time marks arrive the queue is already substantial, and the slow
    alpha decay causes rate oscillation — the behaviour the paper tunes
    away from.
    """

    name = "dcqcn"

    def __init__(self, line_rate: float, base_rtt: float) -> None:
        super().__init__(line_rate, base_rtt)
        self.alpha = 1.0
        self.g = 0.06  # alpha gain
        self.increase = 0.02  # additive increase fraction of line rate per RTT

    def on_signal(self, rtt: float, ecn_marked: bool, dt: float) -> None:
        steps = max(dt / self.base_rtt, 1e-9)
        if ecn_marked:
            self.alpha = (1 - self.g) * self.alpha + self.g
            self.rate *= max(0.5, 1 - self.alpha / 2)
        else:
            self.alpha = (1 - self.g) * self.alpha
            self.rate += self.increase * self.line_rate * steps
        self.rate = min(self.rate, self.line_rate)


class SwiftControl(CongestionControl):
    """Swift: delay-target AIMD on precisely measured RTT."""

    name = "swift"

    def __init__(self, line_rate: float, base_rtt: float, target_delay: float = 25e-6) -> None:
        super().__init__(line_rate, base_rtt)
        self.target_delay = target_delay
        self.ai = 0.05  # additive increase per RTT when under target
        self.beta = 0.8  # multiplicative decrease floor

    def on_signal(self, rtt: float, ecn_marked: bool, dt: float) -> None:
        delay = rtt - self.base_rtt
        steps = max(dt / self.base_rtt, 1e-9)
        if delay <= self.target_delay:
            self.rate += self.ai * self.line_rate * steps
        else:
            overshoot = min(1.0, (delay - self.target_delay) / self.target_delay)
            self.rate *= max(self.beta, 1 - 0.4 * overshoot)
        self.rate = min(self.rate, self.line_rate)


class MegaScaleControl(CongestionControl):
    """The paper's hybrid: ECN for fast response + RTT for precision.

    ECN marks trigger an immediate (but measured) decrease long before
    PFC watermarks; the RTT loop holds the queue at a low target, keeping
    utilization high without the DCQCN oscillation.
    """

    name = "megascale"

    def __init__(self, line_rate: float, base_rtt: float, target_delay: float = 15e-6) -> None:
        super().__init__(line_rate, base_rtt)
        self.target_delay = target_delay
        self.ai = 0.05

    def on_signal(self, rtt: float, ecn_marked: bool, dt: float) -> None:
        delay = rtt - self.base_rtt
        steps = max(dt / self.base_rtt, 1e-9)
        if ecn_marked and delay > self.target_delay:
            # Precise decrease proportional to measured overshoot.
            overshoot = min(1.0, (delay - self.target_delay) / (4 * self.target_delay))
            self.rate *= 1 - 0.25 * overshoot
        elif delay <= self.target_delay:
            self.rate += self.ai * self.line_rate * steps
        self.rate = min(self.rate, self.line_rate)


CC_ALGORITHMS = {
    "dcqcn": DcqcnControl,
    "swift": SwiftControl,
    "megascale": MegaScaleControl,
}


@dataclass(frozen=True)
class CongestionResult:
    """Steady-state metrics of one bottleneck experiment."""

    algorithm: str
    n_flows: int
    goodput_fraction: float  # delivered / capacity
    mean_queue_bytes: float
    peak_queue_bytes: float
    pfc_pause_fraction: float
    hol_victim_throughput: float  # fraction of fair share an innocent flow got


def simulate_bottleneck(
    algorithm: str,
    n_flows: int,
    capacity: float = 50e9,
    line_rate: float = 25e9,
    base_rtt: float = 8e-6,
    duration: float = 0.05,
    dt: float = 2e-6,
    ecn_threshold: Optional[float] = None,
    pfc_xoff: Optional[float] = None,
    seed: int = 0,
    hub=None,
    t0: float = 0.0,
) -> CongestionResult:
    """Run ``n_flows`` senders into one bottleneck under ``algorithm``.

    A designated *victim* flow traverses the same ingress port but exits
    through an uncongested egress; when PFC pauses the port, the victim
    stalls too (head-of-line blocking).

    With a :class:`~repro.observability.TelemetryHub` as ``hub`` the
    experiment emits link-utilization and queue-depth gauge samples
    (Chrome counter events on the ``network`` lane) plus one summary
    span per experiment, all offset by ``t0`` so the evidence lands on
    the caller's scenario clock rather than at time zero.
    """
    cc_cls = CC_ALGORITHMS.get(algorithm)
    if cc_cls is None:
        raise ValueError(f"unknown congestion-control algorithm {algorithm!r}")
    if n_flows < 1:
        raise ValueError("need at least one flow")
    ecn_threshold = ecn_threshold if ecn_threshold is not None else capacity * 120e-6
    pfc_xoff = pfc_xoff if pfc_xoff is not None else capacity * 400e-6

    flows: List[CongestionControl] = [cc_cls(line_rate, base_rtt) for _ in range(n_flows)]
    pfc = PfcState(xoff_threshold=pfc_xoff, xon_threshold=pfc_xoff * 0.5)
    queue = 0.0
    delivered = 0.0
    victim_delivered = 0.0
    queue_sum = 0.0
    queue_peak = 0.0
    steps = int(duration / dt)
    sample_every = max(1, steps // 64)  # bound the telemetry volume
    for step in range(steps):
        now = step * dt
        paused = pfc.update(queue, now)
        offered = sum(f.rate for f in flows) if not paused else 0.0
        drained = min(queue + offered * dt, capacity * dt)
        queue = max(0.0, queue + offered * dt - capacity * dt)
        delivered += drained
        # The HoL victim wants its fair line rate through the same ingress.
        if not paused:
            victim_delivered += min(line_rate, capacity) * dt
        queue_sum += queue
        queue_peak = max(queue_peak, queue)
        rtt = base_rtt + queue / capacity
        marked = queue > ecn_threshold
        for f in flows:
            f.on_signal(rtt, marked, dt)
        if hub is not None and step % sample_every == 0:
            hub.sample(
                "network", f"link_utilization[{algorithm}]", t0 + now,
                drained / dt / capacity,
            )
            hub.sample("network", f"queue_bytes[{algorithm}]", t0 + now, queue)
    pfc.finish(duration)
    if hub is not None:
        hub.span(
            "network",
            f"bottleneck[{algorithm}]",
            0,
            t0,
            t0 + duration,
            stream="congestion",
            algorithm=algorithm,
            n_flows=n_flows,
            goodput_fraction=delivered / (capacity * duration),
            pfc_pause_fraction=pfc.pause_fraction(duration),
        )
        hub.count("network", "congestion_experiments", 1, algorithm=algorithm)
    return CongestionResult(
        algorithm=algorithm,
        n_flows=n_flows,
        goodput_fraction=delivered / (capacity * duration),
        mean_queue_bytes=queue_sum / steps,
        peak_queue_bytes=queue_peak,
        pfc_pause_fraction=pfc.pause_fraction(duration),
        hol_victim_throughput=victim_delivered / (min(line_rate, capacity) * duration),
    )
