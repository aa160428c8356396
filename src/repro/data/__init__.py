"""Data pipeline substrate: loaders and shared-memory staging."""

from .loader import (
    LoaderConfig,
    simulate_redundant_loading,
    simulate_tree_loading,
)
from .shm import SharedMemoryBuffer

__all__ = [
    "LoaderConfig",
    "SharedMemoryBuffer",
    "simulate_redundant_loading",
    "simulate_tree_loading",
]
