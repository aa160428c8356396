"""RDMA NIC spec.

Each GPU server in the paper's cluster carries eight 200 Gbps RNICs, one
per GPU, attached multi-rail to eight different ToR switches.  The spec
carries the line rate that prices inter-node traffic; adaptive
retransmission (§3.6) is a transport policy,
:data:`repro.network.transport.ADAPTIVE_NIC`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.units import Gbps


@dataclass(frozen=True)
class NicSpec:
    """Datasheet characteristics of one RNIC."""

    name: str
    line_rate: float  # bytes/s

    def __post_init__(self) -> None:
        if self.line_rate <= 0:
            raise ValueError("line_rate must be positive")


CX6_200G = NicSpec(name="cx6-200g", line_rate=200 * Gbps)
