"""The hardware spec catalog: frozen GPU, NIC and host datasheets."""

from .gpu import AMPERE, GPU_CATALOG, HOPPER, GpuSpec
from .nic import CX6_200G, NicSpec
from .node import NodeSpec

__all__ = [
    "AMPERE",
    "CX6_200G",
    "GPU_CATALOG",
    "GpuSpec",
    "HOPPER",
    "NicSpec",
    "NodeSpec",
]
