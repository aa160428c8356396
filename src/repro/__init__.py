"""MegaScale reproduction: LLM training systems at 10,000+ GPU scale.

A simulation-grade reimplementation of "MegaScale: Scaling Large Language
Model Training to More Than 10,000 GPUs" (NSDI 2024): the training
iteration engine with 3D-parallel communication overlap, the CLOS
datacenter fabric, collective cost models, the robust-training
fault-tolerance framework, the observability toolchain, and real numpy
convergence microbenchmarks.

Quick start::

    from repro import compare, job_175b

    print(compare(job_175b(n_gpus=1024, global_batch=768)).summary())

Every shared package resolves its documented names on first access
(:func:`lazy_exports`), so importing a module loads only that module and
what it imports.
"""

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple

__version__ = "1.0.0"


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], object], List[str]]:
    """PEP 562 ``(__getattr__, __all__)`` for ``package``.

    ``exports`` maps a submodule path, relative to ``package``, to the
    names the package re-exports from it.  A name is imported from its
    submodule on first access and bound on the package, so later reads
    are plain attribute lookups.
    """
    table = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = table.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{module}"), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__, list(table)


__getattr__, __all__ = lazy_exports(__name__, {
    "core.config": ("TrainingJob", "job_175b", "job_530b"),
    "core.features": (
        "FeatureSet", "MEGASCALE", "MEGASCALE_ISO_BATCH", "MEGATRON_LM", "ablation_sequence",
    ),
    "core.report": ("Comparison", "JobReport", "render_table"),
    "core.system": ("TrainingSystem", "compare", "megascale", "megatron_lm"),
})
__all__.append("__version__")
