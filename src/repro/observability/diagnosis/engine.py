"""The attribution engine: candidates x windows -> ranked findings.

Pipeline: extract the expectation baseline and observed iterations,
decompose into per-term residual windows, run the streaming detectors
over the health gauges, collect causal candidates from every lane, keep
the candidates that temporally overlap a corroborating window, and score

    score = weight * (0.5 + 0.5 * overlap) + 0.75 * [term == dominant]

so specific evidence (fault instants, ECMP collisions) outranks bare
term drift, and candidates blaming the term that actually drifted
outrank ones that don't.  A run with no anomaly, residual or
plan-change window is *clean* and produces zero findings regardless of
what uncorroborated events exist on the side lanes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..cuda_events import CudaEventTimer
from ..hang import localize_hang
from ..heatmap import analyze, straggler_machines
from .baselines import (
    ResidualRow,
    ResidualWindow,
    decompose,
    extract_expectation,
    extract_iterations,
    plan_change_windows,
    residual_summary,
    residual_windows,
)
from .correlate import (
    Candidate,
    collective_candidates,
    fault_candidates,
    network_candidates,
    overlap_score,
    residual_candidates,
    scheduler_candidates,
)
from .detectors import AnomalyWindow, cusum_changepoints, detect_shifts
from .view import TelemetryView

# Health gauges the shift detector watches (all "lower is worse").
WATCHED_GAUGES = ("training.mfu", "training.tokens_per_second", "scheduler.goodput")


@dataclass
class Finding:
    """One ranked root-cause hypothesis."""

    cause: str
    score: float
    subsystem: str
    start: float
    end: float
    term: Optional[str]
    evidence: List[str] = field(default_factory=list)
    details: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "cause": self.cause,
            "score": round(self.score, 6),
            "subsystem": self.subsystem,
            "start": round(self.start, 6),
            "end": round(self.end, 6),
            "term": self.term,
            "evidence": list(self.evidence),
            "details": self.details,
        }


@dataclass
class DiagnosisReport:
    """Ranked findings plus everything they were derived from."""

    findings: List[Finding]
    anomalies: List[AnomalyWindow]
    residuals: List[ResidualWindow]
    plan_changes: List[ResidualWindow]
    changepoints: List[tuple]
    term_excess: Dict[str, float]
    dominant_term: Optional[str]
    clean: bool

    def top(self) -> Optional[Finding]:
        return self.findings[0] if self.findings else None

    def to_dict(self) -> dict:
        return {
            "clean": self.clean,
            "dominant_term": self.dominant_term,
            "term_excess_seconds": {
                k: round(v, 6) for k, v in sorted(self.term_excess.items())
            },
            "anomalies": [
                {
                    "metric": a.metric,
                    "start": round(a.start, 6),
                    "end": round(a.end, 6),
                    "direction": a.direction,
                    "magnitude": round(a.magnitude, 6),
                    "n_samples": a.n_samples,
                }
                for a in self.anomalies
            ],
            "changepoints": [
                {"metric": m, "time": round(t, 6), "direction": d}
                for m, t, d in self.changepoints
            ],
            "residual_windows": [
                {
                    "term": w.term,
                    "start": round(w.start, 6),
                    "end": round(w.end, 6),
                    "steps": list(w.steps),
                    "mean_fraction": round(w.mean_fraction, 6),
                }
                for w in self.residuals + self.plan_changes
            ],
            "findings": [f.to_dict() for f in self.findings],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def describe(self) -> str:
        """Operator-facing text rendition."""
        lines = ["=== diagnosis report ==="]
        if self.clean:
            lines.append("verdict: clean — no anomaly, no findings")
            return "\n".join(lines)
        if self.dominant_term:
            lines.append(
                f"dominant drifting term: {self.dominant_term} "
                f"(+{self.term_excess.get(self.dominant_term, 0.0):.2f}s total)"
            )
        for a in self.anomalies:
            lines.append(
                f"anomaly: {a.metric} {a.direction} {a.magnitude:.1%} over "
                f"[{a.start:.1f}s, {a.end:.1f}s] ({a.n_samples} samples)"
            )
        if not self.findings:
            lines.append("no cause survived correlation — inspect the trace lanes")
        for i, f in enumerate(self.findings, 1):
            lines.append(
                f"#{i} [{f.score:.2f}] {f.cause} ({f.subsystem}, "
                f"[{f.start:.1f}s, {f.end:.1f}s])"
            )
            for e in f.evidence:
                lines.append(f"     - {e}")
        return "\n".join(lines)


class DiagnosisEngine:
    """Runs the three diagnosis layers over one :class:`TelemetryView`."""

    def __init__(
        self,
        view: TelemetryView,
        gpus_per_node: int = 8,
        min_residual_fraction: float = 0.005,
        shift_threshold: float = 0.05,
        plan=None,
        timeout_logs: Optional[Dict[int, Optional[str]]] = None,
    ) -> None:
        """``plan`` + ``timeout_logs`` opt into hang localization (§5.2):
        when communication timed out, the ranks' last-operation logs are
        fed through :func:`~repro.observability.hang.localize_hang` and
        the hung nodes become a top-weight candidate."""
        self.view = view
        self.gpus_per_node = gpus_per_node
        self.min_residual_fraction = min_residual_fraction
        self.shift_threshold = shift_threshold
        self.plan = plan
        self.timeout_logs = timeout_logs

    # -- evidence sources --------------------------------------------------

    def _heatmap_candidates(self, residuals: List[ResidualWindow]) -> List[Candidate]:
        """Straggler heat-map (§5.1) rebuilt from the compute spans.

        Upgrades a generic pipeline-term regression to a named straggler
        when specific ranks run hot relative to the fleet median.
        """
        timer = CudaEventTimer.from_spans(self.view.spans("training"))
        try:
            result = analyze(timer, "forward")
        except ValueError:
            return []
        if not result.outliers:
            return []
        pipeline_windows = [w for w in residuals if w.term == "pipeline"]
        if pipeline_windows:
            start = min(w.start for w in pipeline_windows)
            end = max(w.end for w in pipeline_windows)
        else:
            start, end = 0.0, self.view.end_time()
        machines = straggler_machines(result, self.gpus_per_node)
        return [
            Candidate(
                cause="straggler",
                subsystem="training",
                start=start,
                end=end,
                term="pipeline",
                weight=2.5,
                evidence=[
                    f"heat map flags rank(s) {list(result.outliers)} "
                    f"(machine(s) {machines}) above "
                    f"{result.threshold * 1e3:.1f}ms vs median "
                    f"{result.median * 1e3:.1f}ms"
                ],
                details={
                    "outlier_ranks": list(result.outliers),
                    "machines": machines,
                },
            )
        ]

    def _hang_candidates(self) -> List[Candidate]:
        if self.plan is None or not self.timeout_logs:
            return []
        diagnosis = localize_hang(
            self.plan, self.timeout_logs, gpus_per_node=self.gpus_per_node
        )
        if not diagnosis.hung_ranks:
            return []
        return [
            Candidate(
                cause="nccl-hang",
                subsystem="collectives",
                start=0.0,
                end=self.view.end_time(),
                term=None,
                weight=3.0,
                evidence=[
                    f"rank(s) {sorted(diagnosis.hung_ranks)} logged no "
                    f"operation on timeout (node(s) "
                    f"{sorted(diagnosis.hung_nodes)}); waiter logs "
                    f"{'corroborate' if diagnosis.consistent else 'conflict'}"
                ],
                details={
                    "hung_ranks": sorted(diagnosis.hung_ranks),
                    "hung_nodes": sorted(diagnosis.hung_nodes),
                    "consistent": diagnosis.consistent,
                },
            )
        ]

    # -- the run -----------------------------------------------------------

    def run(self) -> DiagnosisReport:
        view = self.view

        # Layer 1: expectation baselines -> residual windows.
        expected = extract_expectation(view)
        observed = extract_iterations(view)
        rows: List[ResidualRow] = (
            decompose(expected, observed) if expected and observed else []
        )
        residuals = residual_windows(rows, self.min_residual_fraction)
        plan_changes = plan_change_windows(rows)
        excess = residual_summary(rows)
        dominant = None
        if residuals:
            dominant = max(excess, key=lambda term: excess[term])

        # Layer 2: streaming detectors over the health gauges.
        anomalies: List[AnomalyWindow] = []
        changepoints: List[tuple] = []
        for metric in WATCHED_GAUGES:
            series = view.gauge(metric)
            anomalies.extend(
                detect_shifts(series, metric, threshold=self.shift_threshold)
            )
            changepoints.extend(
                (metric, t, d) for t, d in cusum_changepoints(series, metric)
            )

        # Layer 3: cross-lane correlation.
        corroboration = (
            [(a.start, a.end) for a in anomalies]
            + [(w.start, w.end) for w in residuals]
            + [(w.start, w.end) for w in plan_changes]
        )
        clean = not corroboration
        findings: List[Finding] = []
        if not clean:
            candidates = (
                fault_candidates(view)
                + scheduler_candidates(view)
                + network_candidates(view)
                + collective_candidates(view)
                + residual_candidates(residuals)
                + self._heatmap_candidates(residuals)
                + self._hang_candidates()
            )
            for cand in candidates:
                overlap = max(
                    (
                        overlap_score(cand.start, cand.end, w_start, w_end)
                        for w_start, w_end in corroboration
                    ),
                    default=0.0,
                )
                if overlap <= 0.0:
                    continue
                score = cand.weight * (0.5 + 0.5 * overlap)
                if cand.term is not None and cand.term == dominant:
                    score += 0.75
                findings.append(
                    Finding(
                        cause=cand.cause,
                        score=score,
                        subsystem=cand.subsystem,
                        start=cand.start,
                        end=cand.end,
                        term=cand.term,
                        evidence=cand.evidence,
                        details=cand.details,
                    )
                )
            findings.sort(key=lambda f: (-f.score, f.cause, f.start))

        return DiagnosisReport(
            findings=findings,
            anomalies=anomalies,
            residuals=residuals,
            plan_changes=plan_changes,
            changepoints=changepoints,
            term_excess=excess,
            dominant_term=dominant,
            clean=clean,
        )


def diagnose_hub(hub, **kwargs) -> DiagnosisReport:
    """Diagnose a live :class:`~repro.observability.TelemetryHub`."""
    return DiagnosisEngine(TelemetryView.from_hub(hub), **kwargs).run()


def diagnose_files(
    trace_path: str, metrics_path: Optional[str] = None, **kwargs
) -> DiagnosisReport:
    """Diagnose a saved trace document (+ optional metrics sidecar)."""
    view = TelemetryView.from_files(trace_path, metrics_path=metrics_path)
    return DiagnosisEngine(view, **kwargs).run()
