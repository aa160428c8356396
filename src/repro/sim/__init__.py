"""Discrete-event simulation kernel used by every MegaScale subsystem."""

from .engine import Event, SimulationError, Simulator, Timeout
from .process import AllOf, AnyOf, Process
from .randomness import RandomStreams
from .resources import Resource
from .trace import Counter, Span, TraceRecorder

__all__ = [
    "AllOf",
    "AnyOf",
    "Counter",
    "Event",
    "Process",
    "RandomStreams",
    "Resource",
    "SimulationError",
    "Simulator",
    "Span",
    "Timeout",
    "TraceRecorder",
]
