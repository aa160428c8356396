"""Switch specs and their CLOS roles (§3.6).

The paper's fabric is built from Broadcom Tomahawk-4-class chips:
25.6 Tbps total, 64 x 400 Gbps ports, arranged in a three-layer CLOS with
a 1:1 downlink:uplink split (32 ports down, 32 ports up) at every layer.
At the ToR layer each 400G downlink port is split into two 200G ports
with AOC breakout cables, giving 64 NIC-facing 200G ports — and, crucially,
uplinks with twice the bandwidth of any single downlink flow.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.units import Gbps, Tbps


@dataclass(frozen=True)
class SwitchSpec:
    """Datasheet characteristics of one switch chip."""

    name: str
    total_bandwidth: float  # bytes/s
    n_ports: int
    port_rate: float  # bytes/s per port

    def __post_init__(self) -> None:
        if self.n_ports < 2:
            raise ValueError("a switch needs at least 2 ports")
        if self.port_rate * self.n_ports > self.total_bandwidth * 1.001:
            raise ValueError(
                f"{self.name}: port capacity exceeds switching bandwidth "
                f"({self.n_ports} x {self.port_rate} > {self.total_bandwidth})"
            )


TOMAHAWK4 = SwitchSpec(
    name="tomahawk4",
    total_bandwidth=25.6 * Tbps,
    n_ports=64,
    port_rate=400 * Gbps,
)


@dataclass(frozen=True)
class SwitchRole:
    """How a chip is deployed at one CLOS layer."""

    spec: SwitchSpec
    layer: str  # "tor" | "agg" | "spine"
    downlink_ports: int
    uplink_ports: int
    downlink_rate: float
    uplink_rate: float

    def __post_init__(self) -> None:
        if self.downlink_ports < 1:
            raise ValueError("need at least one downlink port")
        if self.layer not in ("tor", "agg", "spine"):
            raise ValueError(f"unknown switch layer {self.layer!r}")


def tor_role(spec: SwitchSpec = TOMAHAWK4, split_downlinks: bool = True) -> SwitchRole:
    """ToR deployment: optionally split 400G downlinks into 2 x 200G (§3.6).

    With splitting, 32 physical downlink ports become 64 x 200G NIC-facing
    ports, while the 32 uplinks stay at 400G — each uplink has double the
    bandwidth of a downlink, halving the damage of an ECMP hash conflict.
    """
    half = spec.n_ports // 2
    if split_downlinks:
        return SwitchRole(
            spec=spec,
            layer="tor",
            downlink_ports=half * 2,
            uplink_ports=half,
            downlink_rate=spec.port_rate / 2,
            uplink_rate=spec.port_rate,
        )
    return SwitchRole(
        spec=spec,
        layer="tor",
        downlink_ports=half,
        uplink_ports=half,
        downlink_rate=spec.port_rate,
        uplink_rate=spec.port_rate,
    )


def agg_role(spec: SwitchSpec = TOMAHAWK4) -> SwitchRole:
    half = spec.n_ports // 2
    return SwitchRole(
        spec=spec,
        layer="agg",
        downlink_ports=half,
        uplink_ports=half,
        downlink_rate=spec.port_rate,
        uplink_rate=spec.port_rate,
    )
