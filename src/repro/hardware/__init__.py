"""Hardware models: GPUs, NICs, hosts, and the cluster node pool."""

from .cluster import Cluster, NoSpareAvailable, UnknownNode
from .gpu import AMPERE, GPU_CATALOG, HOPPER, Gpu, GpuSpec
from .nic import CX6_200G, CX6_200G_ADAP, Nic, NicSpec
from .node import Node, NodeSpec, build_nodes

__all__ = [
    "AMPERE",
    "CX6_200G",
    "CX6_200G_ADAP",
    "Cluster",
    "GPU_CATALOG",
    "Gpu",
    "GpuSpec",
    "HOPPER",
    "Nic",
    "NicSpec",
    "NoSpareAvailable",
    "Node",
    "NodeSpec",
    "UnknownNode",
    "build_nodes",
]
