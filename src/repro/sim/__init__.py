"""Discrete-event simulation kernel used by every MegaScale subsystem."""

from .. import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "engine": ("Event", "SimulationError", "Simulator"),
    "process": ("AllOf", "Process"),
    "resources": ("Resource",),
    "trace": ("TraceRecorder",),
})
