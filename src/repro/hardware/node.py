"""GPU server (host) spec.

The paper's training node is an 8-GPU machine with NVLink between GPUs,
PCIe to the host, one 200 Gbps RNIC per GPU in a multi-rail attachment,
and a local disk feeding the data loaders.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gpu import AMPERE, GpuSpec
from .nic import CX6_200G, NicSpec


@dataclass(frozen=True)
class NodeSpec:
    """Configuration of one GPU server."""

    gpu_spec: GpuSpec = AMPERE
    nic_spec: NicSpec = CX6_200G
    gpus_per_node: int = 8
    disk_read_bandwidth: float = 3e9  # local NVMe, bytes/s
    shared_memory_bandwidth: float = 40e9  # /dev/shm copy bandwidth, bytes/s

    def __post_init__(self) -> None:
        if self.gpus_per_node < 1:
            raise ValueError("gpus_per_node must be >= 1")
