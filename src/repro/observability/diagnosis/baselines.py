"""Expectation baselines: observed iterations minus the cost model.

The training runner emits one ``expectation`` span (the analytic
engine's clean per-term breakdown) and one ``iteration`` span per step
(the observed breakdown).  Subtracting the two yields per-iteration
residuals *per term* — a slowdown is attributed to the pipeline,
data-stall, DP-exposed or optimizer term that actually drifted, which is
what distinguishes a straggler from a congested fabric from a stalled
data pipeline before any event correlation happens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .view import TelemetryView

# The additive terms of IterationResult.terms(): they sum to the
# iteration time exactly, so the residuals decompose the slowdown.
TERMS = ("pipeline", "data_stall", "dp_exposed", "optimizer", "perturbation")


@dataclass(frozen=True)
class ExpectedIteration:
    """The cost model's clean prediction, read off the expectation span."""

    iteration_time: float
    terms: Tuple[Tuple[str, float], ...]
    dp: Optional[int]
    world_size: Optional[int]

    def term(self, name: str) -> float:
        for key, value in self.terms:
            if key == name:
                return value
        return 0.0


@dataclass(frozen=True)
class ObservedIteration:
    """One observed step, read off an ``iteration`` span's attrs."""

    step: int
    start: float
    end: float
    iteration_time: float
    terms: Tuple[Tuple[str, float], ...]
    dp: Optional[int]
    world_size: Optional[int]
    mfu: Optional[float]

    def term(self, name: str) -> float:
        for key, value in self.terms:
            if key == name:
                return value
        return 0.0


@dataclass(frozen=True)
class ResidualRow:
    """One step's observed-minus-expected decomposition."""

    step: int
    start: float
    end: float
    residuals: Tuple[Tuple[str, float], ...]
    total_residual: float
    fraction: float  # total residual / expected iteration time
    dominant_term: str  # largest positive residual term
    plan_changed: bool  # step ran under a different (dp, world) than expected


@dataclass(frozen=True)
class ResidualWindow:
    """A contiguous run of steps dominated by the same drifting term."""

    term: str
    start: float
    end: float
    steps: Tuple[int, ...]
    mean_fraction: float
    peak_fraction: float


def _term_items(span_attr, fallback: float = 0.0) -> Tuple[Tuple[str, float], ...]:
    return tuple((t, float(span_attr(t) or fallback)) for t in TERMS)


def extract_expectation(view: TelemetryView) -> Optional[ExpectedIteration]:
    spans = view.spans("training", name="expectation")
    if not spans:
        return None
    span = spans[0]
    return ExpectedIteration(
        iteration_time=float(span.attr("iteration_time") or span.duration),
        terms=_term_items(span.attr),
        dp=span.attr("dp"),
        world_size=span.attr("world_size"),
    )


def extract_iterations(view: TelemetryView) -> List[ObservedIteration]:
    out = []
    for span in view.spans("training", name="iteration"):
        out.append(
            ObservedIteration(
                step=int(span.attr("step") or 0),
                start=span.start,
                end=span.end,
                iteration_time=float(span.attr("iteration_time") or span.duration),
                terms=_term_items(span.attr),
                dp=span.attr("dp"),
                world_size=span.attr("world_size"),
                mfu=span.attr("mfu"),
            )
        )
    return sorted(out, key=lambda it: (it.step, it.start))


def decompose(
    expected: ExpectedIteration, observed: List[ObservedIteration]
) -> List[ResidualRow]:
    """Per-step residual rows against the expectation baseline.

    Steps that ran under a different ``(dp, world_size)`` than the
    expectation (elastic shrink, preemption) are marked ``plan_changed``:
    their residuals are not comparable — the baseline priced a different
    parallel plan — so attribution excludes them and the plan change
    itself becomes the evidence.
    """
    rows: List[ResidualRow] = []
    denom = expected.iteration_time or 1.0
    for it in observed:
        plan_changed = (
            expected.dp is not None
            and it.dp is not None
            and (it.dp != expected.dp or it.world_size != expected.world_size)
        )
        residuals = tuple(
            (term, it.term(term) - expected.term(term)) for term in TERMS
        )
        total = it.iteration_time - expected.iteration_time
        dominant = max(residuals, key=lambda kv: kv[1])[0]
        rows.append(
            ResidualRow(
                step=it.step,
                start=it.start,
                end=it.end,
                residuals=residuals,
                total_residual=total,
                fraction=total / denom,
                dominant_term=dominant,
                plan_changed=plan_changed,
            )
        )
    return rows


def _flush(
    windows: List[ResidualWindow], term: str, run: List[ResidualRow]
) -> None:
    if not run:
        return
    fractions = [r.fraction for r in run]
    windows.append(
        ResidualWindow(
            term=term,
            start=run[0].start,
            end=run[-1].end,
            steps=tuple(r.step for r in run),
            mean_fraction=sum(fractions) / len(fractions),
            peak_fraction=max(fractions),
        )
    )


def residual_windows(
    rows: List[ResidualRow], min_fraction: float = 0.005
) -> List[ResidualWindow]:
    """Contiguous same-dominant-term runs with a material total residual.

    ``min_fraction`` is the smallest per-step slowdown (as a fraction of
    the expected iteration time) worth attributing; plan-changed rows
    never contribute (see :func:`decompose`).
    """
    windows: List[ResidualWindow] = []
    term: Optional[str] = None
    run: List[ResidualRow] = []
    for row in rows:
        active = not row.plan_changed and row.fraction >= min_fraction
        if active and row.dominant_term == term:
            run.append(row)
            continue
        if term is not None:
            _flush(windows, term, run)
        term, run = (row.dominant_term, [row]) if active else (None, [])
    if term is not None:
        _flush(windows, term, run)
    return windows


def plan_change_windows(rows: List[ResidualRow]) -> List[ResidualWindow]:
    """Contiguous runs of steps that ran under a changed parallel plan."""
    windows: List[ResidualWindow] = []
    run: List[ResidualRow] = []
    for row in rows:
        if row.plan_changed:
            run.append(row)
        elif run:
            _flush(windows, "plan-change", run)
            run = []
    if run:
        _flush(windows, "plan-change", run)
    return windows


def residual_summary(rows: List[ResidualRow]) -> Dict[str, float]:
    """Total positive excess seconds per term across attributable rows."""
    totals = {term: 0.0 for term in TERMS}
    for row in rows:
        if row.plan_changed:
            continue
        for term, value in row.residuals:
            if value > 0:
                totals[term] += value
    return totals
