"""GPU server (host) model.

The paper's training node is an 8-GPU machine with NVLink between GPUs,
PCIe to the host, one 200 Gbps RNIC per GPU in a multi-rail attachment,
host DRAM used for two-stage checkpointing, and a local disk feeding the
data loaders.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.units import GiB
from .gpu import AMPERE, Gpu, GpuSpec
from .nic import CX6_200G, Nic, NicSpec

_node_ids = itertools.count()


@dataclass(frozen=True)
class NodeSpec:
    """Configuration of one GPU server."""

    gpu_spec: GpuSpec = AMPERE
    nic_spec: NicSpec = CX6_200G
    gpus_per_node: int = 8
    host_memory_bytes: float = 2048 * GiB
    disk_read_bandwidth: float = 3e9  # local NVMe, bytes/s
    shared_memory_bandwidth: float = 40e9  # /dev/shm copy bandwidth, bytes/s

    def __post_init__(self) -> None:
        if self.gpus_per_node < 1:
            raise ValueError("gpus_per_node must be >= 1")


@dataclass
class Node:
    """A host instance: GPUs, NICs, and health state.

    ``speed_factor`` applies to every GPU on the host; the paper's
    computational stragglers were host-level (certain machines ~10%
    slower on identical forward computation, §6.3).
    """

    spec: NodeSpec
    node_id: int = field(default_factory=lambda: next(_node_ids))
    gpus: List[Gpu] = field(default_factory=list)
    nics: List[Nic] = field(default_factory=list)
    healthy: bool = True
    evicted: bool = False
    labels: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.gpus:
            self.gpus = [
                Gpu(spec=self.spec.gpu_spec, index=i)
                for i in range(self.spec.gpus_per_node)
            ]
        if not self.nics:
            self.nics = [
                Nic(spec=self.spec.nic_spec, index=i)
                for i in range(self.spec.gpus_per_node)
            ]

    @property
    def n_gpus(self) -> int:
        return len(self.gpus)

    @property
    def speed_factor(self) -> float:
        """Slowest GPU's speed factor; training is gated by the slowest."""
        return min(g.speed_factor for g in self.gpus)

    def set_speed_factor(self, factor: float) -> None:
        for gpu in self.gpus:
            gpu.degrade(factor)

    def gpu(self, local_rank: int) -> Gpu:
        return self.gpus[local_rank]

    def nic(self, local_rank: int) -> Nic:
        return self.nics[local_rank]

    def has_fault(self) -> bool:
        """Whether any component on this host is degraded or unhealthy."""
        if not self.healthy:
            return True
        if any(not g.healthy or g.speed_factor < 1.0 for g in self.gpus):
            return True
        return any(not n.healthy or n.bandwidth_factor < 1.0 for n in self.nics)


def build_nodes(n_nodes: int, spec: Optional[NodeSpec] = None) -> List[Node]:
    """Construct ``n_nodes`` identical healthy hosts with fresh ids."""
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    spec = spec or NodeSpec()
    return [Node(spec=spec) for _ in range(n_nodes)]
