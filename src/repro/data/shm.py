"""Shared-memory staging buffer (§3.4).

The tree-based loader's hand-off point: one dedicated reader fills the
buffer, every GPU worker copies out at memcpy speed.  Modelled as a
capacity-limited staging area with explicit fill/drain accounting so the
loader simulation can enforce back-pressure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class SharedMemoryBuffer:
    """A /dev/shm staging region holding prepared iteration batches."""

    capacity_bytes: float
    copy_bandwidth: float  # bytes/s for one worker's copy-out
    _entries: Dict[int, float] = field(default_factory=dict)  # iteration -> bytes
    used_bytes: float = 0.0

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0 or self.copy_bandwidth <= 0:
            raise ValueError("capacity and bandwidth must be positive")

    def can_fit(self, nbytes: float) -> bool:
        return self.used_bytes + nbytes <= self.capacity_bytes

    def publish(self, iteration: int, nbytes: float) -> None:
        """The reader exposes iteration data to the workers."""
        if nbytes <= 0:
            raise ValueError("published data must be non-empty")
        if iteration in self._entries:
            raise ValueError(f"iteration {iteration} already staged")
        if not self.can_fit(nbytes):
            raise MemoryError(
                f"shm full: {self.used_bytes + nbytes:.0f} > {self.capacity_bytes:.0f}"
            )
        self._entries[iteration] = nbytes
        self.used_bytes += nbytes

    def copy_out_time(self, iteration: int) -> float:
        """One worker's copy duration for a staged iteration."""
        nbytes = self._entries.get(iteration)
        if nbytes is None:
            raise KeyError(f"iteration {iteration} not staged")
        return nbytes / self.copy_bandwidth

    def release(self, iteration: int) -> None:
        """Free a consumed iteration's staging space."""
        nbytes = self._entries.pop(iteration, None)
        if nbytes is None:
            raise KeyError(f"iteration {iteration} not staged")
        self.used_bytes -= nbytes
