"""Per-anchor residual reporting and the CI drift gate.

:func:`calibration_report` prices every anchor (optionally under a
:class:`~repro.calibration.fit.CalibratedProfile`) and reports, per
anchor: the published value, the prediction, the signed relative error,
whether it lies within the anchor's tolerance, and the engine's per-term
time breakdown (pipeline / data_stall / dp_exposed / optimizer /
perturbation) so a drifting anchor can be attributed to the cost term
that moved.

The JSON export is deterministic — fixed row order (fixture file order),
fixed key order, floats serialized with ``repr`` round-tripping — so a
committed baseline can be compared byte-for-byte and
:func:`check_drift` can gate CI: it fails when any anchor's *prediction*
moves beyond ``drift_tolerance`` relative to the committed baseline
(catching cost-model changes), and when any ``must_match`` anchor falls
outside its own tolerance against the *published* value (catching
calibration regressions).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..exec.executor import run_tasks
from .fit import (
    AnchorPrediction,
    CalibratedProfile,
    is_finite_number,
    predict_anchor,
    relative_error,
)
from .fixtures import Anchor, load_anchors


@dataclass(frozen=True)
class ReportRow:
    """One anchor's residual."""

    anchor_id: str
    source: str
    system: str
    metric: str
    published: float
    predicted: float
    rel_error: float  # signed; positive = simulator over-predicts
    tolerance: float
    within_tolerance: bool
    must_match: bool
    fit: bool
    iteration_time: float
    terms: Tuple[Tuple[str, float], ...]

    def to_dict(self) -> dict:
        return {
            "anchor_id": self.anchor_id,
            "source": self.source,
            "system": self.system,
            "metric": self.metric,
            "published": self.published,
            "predicted": self.predicted,
            "rel_error": self.rel_error,
            "tolerance": self.tolerance,
            "within_tolerance": self.within_tolerance,
            "must_match": self.must_match,
            "fit": self.fit,
            "iteration_time": self.iteration_time,
            "terms": dict(self.terms),
        }


@dataclass(frozen=True)
class CalibrationReport:
    """All anchors' residuals under one profile."""

    profile: Optional[CalibratedProfile]
    rows: Tuple[ReportRow, ...]

    @property
    def max_abs_rel_error(self) -> float:
        return max((abs(r.rel_error) for r in self.rows), default=0.0)

    @property
    def failures(self) -> Tuple[ReportRow, ...]:
        """``must_match`` anchors outside their tolerance."""
        return tuple(r for r in self.rows if r.must_match and not r.within_tolerance)

    def to_dict(self) -> dict:
        return {
            "profile": self.profile.to_dict() if self.profile is not None else None,
            "max_abs_rel_error": self.max_abs_rel_error,
            "anchors": [row.to_dict() for row in self.rows],
        }

    def to_json(self) -> str:
        """Deterministic serialization (byte-identical across runs)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    def describe(self) -> str:
        lines = [
            f"{'anchor':44s} {'published':>10s} {'predicted':>10s} {'rel err':>8s}  ok",
        ]
        for r in self.rows:
            mark = "ok" if r.within_tolerance else ("FAIL" if r.must_match else "off")
            lines.append(
                f"{r.anchor_id:44s} {r.published:10.3f} {r.predicted:10.3f} "
                f"{r.rel_error:+8.1%}  {mark}"
            )
        lines.append(
            f"max |rel err| {self.max_abs_rel_error:.1%} over {len(self.rows)} anchors"
            + (f"; {len(self.failures)} must-match FAILURES" if self.failures else "")
        )
        return "\n".join(lines)


def calibration_report(
    anchors: Optional[Sequence[Anchor]] = None,
    profile: Optional[CalibratedProfile] = None,
    fixture_dir: Optional[str] = None,
    workers: int = 0,
) -> CalibrationReport:
    """Price every anchor and residualize against the published values.

    Deterministic under ``workers > 0``: :func:`repro.exec.run_tasks`
    returns results in submission order and each prediction is a pure
    function of (anchor, profile), so serial and parallel reports are
    byte-identical.
    """
    anchors = list(anchors) if anchors is not None else load_anchors(fixture_dir)
    fn = functools.partial(predict_anchor, profile=profile)
    predictions, _stats = run_tasks(fn, anchors, workers=workers)
    rows = []
    for anchor, pred in zip(anchors, predictions):
        assert isinstance(pred, AnchorPrediction)
        rel = relative_error(pred.predicted, anchor.published)
        rows.append(
            ReportRow(
                anchor_id=anchor.id,
                source=anchor.source,
                system=anchor.system,
                metric=anchor.metric,
                published=anchor.published,
                predicted=pred.predicted,
                rel_error=rel,
                tolerance=anchor.tolerance,
                within_tolerance=abs(rel) <= anchor.tolerance,
                must_match=anchor.must_match,
                fit=anchor.fit,
                iteration_time=pred.iteration_time,
                terms=pred.terms,
            )
        )
    return CalibrationReport(profile=profile, rows=tuple(rows))


# -- drift gate ---------------------------------------------------------------

DEFAULT_DRIFT_TOLERANCE = 0.02


@dataclass(frozen=True)
class DriftViolation:
    """One gate failure: a prediction that moved, an anchor only one of
    report and baseline has, or a must-match miss."""

    anchor_id: str
    kind: str  # "drift" | "not_in_baseline" | "must_match"
    baseline: float  # baseline prediction (drift) or published value
    current: float
    limit: float

    def describe(self) -> str:
        if self.kind == "not_in_baseline":
            return f"{self.anchor_id}: not in the baseline; re-save it with --save-baseline"
        if self.kind == "drift":
            return (
                f"{self.anchor_id}: prediction drifted "
                f"{relative_error(self.current, self.baseline):+.2%} from baseline "
                f"{self.baseline:.4g} -> {self.current:.4g} (limit ±{self.limit:.1%})"
            )
        return (
            f"{self.anchor_id}: must-match anchor off published value "
            f"{self.baseline:.4g} by {relative_error(self.current, self.baseline):+.2%} "
            f"(tolerance ±{self.limit:.1%})"
        )


def load_baseline(path: str) -> dict:
    """Read and check a saved report as a drift baseline: an object whose
    ``anchors`` lists objects, each with a string ``anchor_id`` and a
    finite, non-zero numeric ``predicted`` (drift is relative to it).  A
    ValueError names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"baseline {path}: {exc}") from None
    entries = payload.get("anchors") if isinstance(payload, dict) else None
    if not isinstance(entries, list) or not all(
        isinstance(entry, dict)
        and isinstance(entry.get("anchor_id"), str)
        and is_finite_number(entry.get("predicted"))
        and entry["predicted"] != 0
        for entry in entries
    ):
        raise ValueError(
            f"baseline {path}: not a saved report (need an object whose 'anchors' "
            "lists objects with a string 'anchor_id' and a finite, non-zero "
            "numeric 'predicted')"
        )
    return payload


def check_drift(
    report: CalibrationReport,
    baseline: dict,
    drift_tolerance: float = DEFAULT_DRIFT_TOLERANCE,
) -> List[DriftViolation]:
    """Violations of the CI gate, empty when the gate passes.

    ``baseline`` is a previously saved report's ``to_dict()`` payload
    (the committed ``baseline_report.json``).  Four conditions gate:

    * every baseline anchor must still exist (a silently dropped anchor
      would otherwise weaken the gate forever);
    * every report anchor must be in the baseline (an anchor with no
      baseline prediction is not checked for drift at all);
    * each current prediction must be within ``drift_tolerance``
      (relative) of the baseline prediction;
    * each ``must_match`` anchor must be within its own tolerance of the
      *published* value.
    """
    if not (math.isfinite(drift_tolerance) and drift_tolerance > 0):
        raise ValueError(f"drift_tolerance must be finite and positive, got {drift_tolerance}")
    current: Dict[str, ReportRow] = {r.anchor_id: r for r in report.rows}
    violations: List[DriftViolation] = []
    for entry in baseline.get("anchors", []):
        anchor_id = entry["anchor_id"]
        row = current.get(anchor_id)
        if row is None:
            violations.append(
                DriftViolation(
                    anchor_id=anchor_id,
                    kind="drift",
                    baseline=entry["predicted"],
                    current=float("nan"),
                    limit=drift_tolerance,
                )
            )
            continue
        if abs(relative_error(row.predicted, entry["predicted"])) > drift_tolerance:
            violations.append(
                DriftViolation(
                    anchor_id=anchor_id,
                    kind="drift",
                    baseline=entry["predicted"],
                    current=row.predicted,
                    limit=drift_tolerance,
                )
            )
    in_baseline = {entry["anchor_id"] for entry in baseline.get("anchors", [])}
    for row in report.rows:
        if row.anchor_id not in in_baseline:
            violations.append(
                DriftViolation(
                    anchor_id=row.anchor_id,
                    kind="not_in_baseline",
                    baseline=float("nan"),
                    current=row.predicted,
                    limit=drift_tolerance,
                )
            )
    for row in report.failures:
        violations.append(
            DriftViolation(
                anchor_id=row.anchor_id,
                kind="must_match",
                baseline=row.published,
                current=row.predicted,
                limit=row.tolerance,
            )
        )
    return violations
