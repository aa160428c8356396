"""Calibration harness: fit cost models to published profiles.

The fixtures layer (:mod:`.fixtures`) transcribes published anchors —
Megatron-LM's SC '21 per-GPU throughput table and MegaScale's NSDI '24
MFU tables — into fully specified simulation points with provenance.
The fitting layer (:mod:`.fit`) least-squares-fits the GEMM efficiency
curve, collective α–β parameters and kernel-launch overhead against
them, producing a :class:`CalibratedProfile` that overrides the catalog
constants per run (``profile=`` on the engine, the training systems and
the tuner).  The residual layer (:mod:`.report`) prices every anchor,
residualizes against the published values, exports a deterministic JSON
artifact, and gates CI on prediction drift from the committed baseline.

See docs/api.md, "Calibration & validation".
"""

from .fit import (
    FIT_PARAMS,
    CalibratedProfile,
    IDENTITY_PROFILE,
    default_profile_constants,
    fit_profile,
    predict_anchor,
    relative_error,
)
from .fixtures import (
    Anchor,
    default_fixture_dir,
    fit_anchors,
    load_anchors,
    load_fixture,
    sc21_hardware_flops,
)
from .report import calibration_report, check_drift, load_baseline

__all__ = [
    "Anchor",
    "CalibratedProfile",
    "FIT_PARAMS",
    "IDENTITY_PROFILE",
    "calibration_report",
    "check_drift",
    "default_fixture_dir",
    "default_profile_constants",
    "fit_anchors",
    "fit_profile",
    "load_anchors",
    "load_baseline",
    "load_fixture",
    "predict_anchor",
    "relative_error",
    "sc21_hardware_flops",
]
