"""Data pipeline substrate: loaders and shared-memory staging."""

from .loader import (
    LoaderConfig,
    LoaderStats,
    simulate_redundant_loading,
    simulate_tree_loading,
)
from .shm import SharedMemoryBuffer

__all__ = [
    "LoaderConfig",
    "LoaderStats",
    "SharedMemoryBuffer",
    "simulate_redundant_loading",
    "simulate_tree_loading",
]
