"""Directed network links with capacity, latency and up/down state."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(eq=False)  # identity equality/hash: links are used as dict keys
class Link:
    """A unidirectional link between two devices in the fabric.

    A plain record: the up/down state of a
    :class:`~repro.network.topology.ClosFabric` link is owned by its
    fabric and changed only through
    :meth:`~repro.network.topology.ClosFabric.set_link_state`, which
    keeps routing and the fabric's fingerprint in step.
    """

    src: str
    dst: str
    bandwidth: float  # bytes/s
    latency: float = 1e-6  # propagation + switching, seconds
    up: bool = True
    # Accumulated statistics (fluid model bookkeeping).
    bytes_carried: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError(f"link {self.name} must have positive bandwidth")
        if self.latency < 0:
            raise ValueError(f"link {self.name} has negative latency")

    @property
    def name(self) -> str:
        return f"{self.src}->{self.dst}"

    @property
    def key(self) -> Tuple[str, str]:
        return (self.src, self.dst)

    def carry(self, nbytes: float) -> None:
        if nbytes < 0:
            raise ValueError("cannot carry negative bytes")
        self.bytes_carried += nbytes
