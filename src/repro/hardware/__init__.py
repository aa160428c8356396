"""The hardware spec catalog: frozen GPU, NIC and host datasheets."""

from .. import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "gpu": ("AMPERE", "GPU_CATALOG", "HOPPER", "GpuSpec"),
    "nic": ("CX6_200G", "NicSpec"),
    "node": ("NodeSpec",),
})
