"""RDMA NIC model.

Each GPU server in the paper's cluster carries eight 200 Gbps RNICs, one
per GPU, attached multi-rail to eight different ToR switches.  The NIC
model tracks line rate and health (for diagnostic tests).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.units import Gbps


@dataclass(frozen=True)
class NicSpec:
    """Datasheet characteristics of one RNIC."""

    name: str
    line_rate: float  # bytes/s
    base_latency: float  # one-way wire+DMA latency, seconds
    adap_retrans: bool = False  # adaptive retransmission feature (§3.6)

    def __post_init__(self) -> None:
        if self.line_rate <= 0:
            raise ValueError("line_rate must be positive")
        if self.base_latency < 0:
            raise ValueError("base_latency must be non-negative")


CX6_200G = NicSpec(name="cx6-200g", line_rate=200 * Gbps, base_latency=2e-6)
CX6_200G_ADAP = NicSpec(
    name="cx6-200g-adap", line_rate=200 * Gbps, base_latency=2e-6, adap_retrans=True
)


@dataclass
class Nic:
    """An RNIC instance: spec plus mutable health and traffic state."""

    spec: NicSpec
    index: int
    healthy: bool = True
    # Degradation factor on achievable bandwidth (bad PCIe config, bad
    # signal quality on the AOC cable, ...).
    bandwidth_factor: float = 1.0

    def degrade(self, bandwidth_factor: float) -> None:
        if not 0 <= bandwidth_factor <= 1:
            raise ValueError("bandwidth_factor must be in [0, 1]")
        self.bandwidth_factor = bandwidth_factor
        if bandwidth_factor == 0:
            self.healthy = False
