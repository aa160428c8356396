"""Two-tier monitoring (§4.2).

The paper deploys *second-level* monitoring for overall health (ECN/PFC
/QoS configuration issues, link flapping, NIC state) and
*millisecond-level* monitoring to decide whether the network is
congested and whether DP/PP transfers run at their physical limit.

Both tiers here consume the same simulated substrate the rest of the
system uses: flap events and link utilization samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..network.flapping import FlapEvent, flap_downtime_in_window


@dataclass(frozen=True)
class HealthFinding:
    """One second-level monitoring observation."""

    severity: str  # "ok" | "warning" | "critical"
    subsystem: str
    message: str


@dataclass
class SecondLevelMonitor:
    """Coarse health: configuration, flapping, PFC posture."""

    flap_warning_per_hour: float = 2.0
    pfc_pause_warning: float = 0.02

    def check_flapping(self, events: List[FlapEvent], window_hours: float = 1.0, now: float = 0.0) -> HealthFinding:
        if window_hours <= 0:
            raise ValueError("window_hours must be positive")
        window = window_hours * 3600.0
        start = max(0.0, now - window)
        recent = [e for e in events if e.down_at >= start]
        rate = len(recent) / window_hours
        downtime = flap_downtime_in_window(events, start, max(now, start))
        if rate > self.flap_warning_per_hour:
            return HealthFinding(
                "critical",
                "link",
                f"{rate:.1f} flaps/hour ({downtime:.1f}s down): check AOC cable "
                "and signal strength (§6.3)",
            )
        if recent:
            return HealthFinding("warning", "link", f"{len(recent)} flap(s) in the window")
        return HealthFinding("ok", "link", "no flapping observed")


@dataclass
class MillisecondMonitor:
    """Fine-grained transfer-speed tracking against the physical limit."""

    link_rate: float  # bytes/s physical limit per NIC
    congestion_threshold: float = 0.70  # below this fraction -> congested
    samples: List[Tuple[float, float]] = field(default_factory=list)  # (t, bytes/s)

    def __post_init__(self) -> None:
        if self.link_rate <= 0:
            raise ValueError("link_rate must be positive")

    def record(self, t: float, rate: float) -> None:
        if rate < 0:
            raise ValueError("rates are non-negative")
        self.samples.append((t, rate))

    def utilization(self, window: Optional[int] = None) -> float:
        """Mean utilization over the trailing ``window`` samples.

        ``None`` and ``0`` both mean "all samples"; negative windows are
        rejected rather than silently slicing from the front.
        """
        if window is not None and window < 0:
            raise ValueError(f"window must be >= 0, got {window}")
        data = self.samples if not window else self.samples[-window:]
        if not data:
            return 0.0
        return sum(r for _, r in data) / len(data) / self.link_rate

    def at_physical_limit(self, window: Optional[int] = None, slack: float = 0.9) -> bool:
        """True when transfers run at >= ``slack`` of the line rate."""
        return self.utilization(window) >= slack

    def congested(self, window: Optional[int] = None) -> bool:
        """Traffic flowing but well below the limit: queueing upstream."""
        u = self.utilization(window)
        return 0.0 < u < self.congestion_threshold

    def verdict(self) -> HealthFinding:
        if not self.samples:
            return HealthFinding("warning", "transfer", "no transfer samples yet")
        if self.at_physical_limit():
            return HealthFinding("ok", "transfer", "transfers at the physical limit")
        if self.congested():
            return HealthFinding(
                "warning",
                "transfer",
                f"utilization {self.utilization():.0%}: network congestion suspected",
            )
        return HealthFinding("ok", "transfer", f"utilization {self.utilization():.0%}")
