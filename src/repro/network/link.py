"""Directed network links with capacity, latency and up/down state."""

from __future__ import annotations

from dataclasses import dataclass, field
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.up else "DOWN"
        return f"<Link {self.name} {self.bandwidth / 125e6:.0f}Gbps {state}>"


@dataclass
class DuplexLink:
    """A bidirectional connection modelled as two independent links.

    ``reverse`` is a fresh :class:`Link`, so this models a standalone
    cable; a :class:`~repro.network.topology.ClosFabric` link and its
    reverse change state through its fabric's ``set_link_state``.
    """

    forward: Link
    reverse: Link = field(init=False)

    def __post_init__(self) -> None:
        self.reverse = Link(
            src=self.forward.dst,
            dst=self.forward.src,
            bandwidth=self.forward.bandwidth,
            latency=self.forward.latency,
        )

    def set_state(self, up: bool) -> None:
        self.forward.up = self.reverse.up = up

    @property
    def up(self) -> bool:
        return self.forward.up and self.reverse.up
