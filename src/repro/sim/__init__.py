"""Discrete-event simulation kernel used by every MegaScale subsystem."""

from .engine import Event, SimulationError, Simulator, Timeout
from .process import AllOf, Process
from .resources import Resource
from .trace import Span, TraceRecorder

__all__ = [
    "AllOf",
    "Event",
    "Process",
    "Resource",
    "SimulationError",
    "Simulator",
    "Span",
    "Timeout",
    "TraceRecorder",
]
