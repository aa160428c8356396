"""Automated anomaly detection & root-cause attribution (§5).

The paper's observability stack is not a trace viewer — it is a loop
that answers "the run got slower, why?" mechanically.  This package is
that loop for the reproduction:

1. **Expectation baselines** (:mod:`.baselines`) — decompose observed
   ``iteration`` spans against the analytic cost model's per-term
   breakdown (pipeline / data-stall / DP-exposed / optimizer) into
   per-iteration residuals, so a slowdown is attributed to the *term*
   that drifted, not merely noticed.
2. **Streaming detectors** (:mod:`.detectors`) — deterministic
   windowed-median shift detection and two-sided CUSUM changepoints over
   gauge series (MFU, tokens/s, goodput), producing anomaly windows.
3. **Cross-lane correlation** (:mod:`.correlate`, :mod:`.engine`) —
   join anomaly/residual windows with fault instants, link flaps, PFC /
   congestion evidence and scheduler decisions by temporal overlap and
   blamed-term match, fold in the straggler heat map and hang localizer,
   and score causal candidates into a ranked
   :class:`~repro.observability.diagnosis.engine.DiagnosisReport`.

Everything is a pure function of the telemetry, so reports are
byte-identical for a fixed seed; :mod:`.scenarios` injects known causes
so a gate can assert the top-ranked finding blames the right one.
"""

from .baselines import (
    TERMS,
    decompose,
    extract_expectation,
    extract_iterations,
    plan_change_windows,
    residual_windows,
)
from .correlate import overlap_score
from .detectors import cusum_changepoints, detect_shifts
from .engine import (
    DiagnosisEngine,
    DiagnosisReport,
    Finding,
    diagnose_files,
    diagnose_hub,
)
from .scenarios import (
    SCENARIOS,
    TRUE_CAUSE,
    run_scenario,
)
from .view import TelemetryView

__all__ = [
    "DiagnosisEngine",
    "DiagnosisReport",
    "Finding",
    "SCENARIOS",
    "TERMS",
    "TRUE_CAUSE",
    "TelemetryView",
    "cusum_changepoints",
    "decompose",
    "detect_shifts",
    "diagnose_files",
    "diagnose_hub",
    "extract_expectation",
    "extract_iterations",
    "overlap_score",
    "plan_change_windows",
    "residual_windows",
    "run_scenario",
]
