"""The smoke job's scenario gates: checks that no entry point runs.

* :func:`multi_tenant_chaos` replays the scheduler's multi-tenant chaos
  scenario (:func:`repro.scheduler.scenarios.run_policy`) under both
  arbitration policies, per seed.  It checks that the goodput timeline
  is monotone-consistent and byte-identical across re-runs, that the
  spare ledger balances, that no job ever blocks unboundedly on a
  spare, and that the arbitrating scheduler beats the FIFO baseline on
  cluster-wide goodput.
* :func:`diagnose_smoke` runs every injected-cause scenario
  (:func:`repro.observability.diagnosis.run_scenario`) per seed.  It
  checks that the report is byte-identical across two runs, that the
  top-ranked finding blames the injected cause and that the clean
  scenario yields zero findings.

Both raise ``AssertionError`` or ``ValueError`` on a violation and
return one summary dict per case otherwise.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.observability.diagnosis import (
    SCENARIOS,
    TRUE_CAUSE,
    DiagnosisReport,
    diagnose_hub,
    run_scenario,
)
from repro.scheduler import MultiJobReport, SchedulerConfig, run_policy


def _fingerprint(report: MultiJobReport) -> str:
    """A byte-exact serialization of everything the gate compares."""
    lines = [f"{t:.9f} {g:.9f}" for t, g in report.timeline()]
    lines += [
        f"{d.time:.9f} {d.action} {d.job} {d.detail!r}" for d in report.decisions
    ]
    return "\n".join(lines)


def _check_monotone(report: MultiJobReport) -> None:
    total_weight = sum(j.weight for j in report.per_job.values())
    cursor = 0.0
    for segment in report.segments:
        if segment.start < cursor - 1e-9 or segment.end <= segment.start:
            raise ValueError(f"non-monotone goodput segment: {segment}")
        if not 0.0 <= segment.goodput <= total_weight + 1e-9:
            raise ValueError(f"goodput out of range: {segment}")
        cursor = segment.end
    if report.segments and abs(report.segments[-1].end - report.duration) > 1e-6:
        raise ValueError("goodput timeline does not cover the horizon")
    times = [d.time for d in report.decisions]
    if times != sorted(times):
        raise ValueError("decision log is not time-ordered")


def _check_bounded_stalls(report: MultiJobReport, config: SchedulerConfig) -> None:
    """No job ever blocks unboundedly waiting on a spare."""
    bound = (
        config.silent_fault_detection_time
        + config.diagnose_time
        + config.spare_provisioning_time
        + 1.0
    )
    for decision in report.actions("stall"):
        wait = dict(decision.detail)["until"] - decision.time
        if not 0.0 < wait <= bound:
            raise ValueError(f"unbounded stall: {decision}")


def multi_tenant_chaos(
    seeds: Sequence[int] = (0, 1, 2), days: float = 3.0
) -> List[dict]:
    """Arbitration beats FIFO, deterministically, per seed."""
    config = SchedulerConfig()
    summaries: List[dict] = []
    for seed in seeds:
        reports: Dict[str, MultiJobReport] = {}
        for policy in ("priority", "fifo"):
            report, scheduler = run_policy(seed, policy, days=days)
            again, _ = run_policy(seed, policy, days=days)
            assert _fingerprint(report) == _fingerprint(again), (
                f"seed {seed} policy {policy}: run is not deterministic"
            )
            _check_monotone(report)
            _check_bounded_stalls(report, config)
            if not scheduler.pool.consistent():
                raise ValueError(
                    f"seed {seed} policy {policy}: spare ledger does not balance"
                )
            for name, summary in report.per_job.items():
                consumed = report.spares_consumed_by.get(name, 0)
                if consumed != summary.spares_consumed:
                    raise ValueError(f"spare accounting mismatch for {name}")
            reports[policy] = report
        arbitrated = reports["priority"].mean_goodput
        naive = reports["fifo"].mean_goodput
        assert arbitrated > naive, (
            f"seed {seed}: arbitrating scheduler ({arbitrated:.4f}) does not "
            f"beat FIFO-spares baseline ({naive:.4f})"
        )
        summaries.append(
            {
                "seed": seed,
                "goodput_priority": arbitrated,
                "goodput_fifo": naive,
                "improvement": arbitrated / naive if naive > 0 else float("inf"),
                "decisions_priority": len(reports["priority"].decisions),
                "decisions_fifo": len(reports["fifo"].decisions),
                "preemptions": sum(
                    j.preemptions for j in reports["priority"].per_job.values()
                ),
                "spares_consumed": sum(
                    reports["priority"].spares_consumed_by.values()
                ),
            }
        )
    return summaries


def diagnose_scenario(name: str, seed: int = 0, n_steps: int = 24) -> DiagnosisReport:
    """Run one scenario and diagnose its hub."""
    return diagnose_hub(run_scenario(name, seed=seed, n_steps=n_steps))


def diagnose_smoke(seeds: Sequence[int] = (0, 1, 2)) -> List[dict]:
    """Every scenario, every seed, every guarantee."""
    summaries: List[dict] = []
    for seed in seeds:
        for name in SCENARIOS:
            first = diagnose_scenario(name, seed=seed).to_json()
            second = diagnose_scenario(name, seed=seed).to_json()
            if first != second:
                raise AssertionError(
                    f"{name} seed {seed}: report not byte-identical across runs"
                )
            report = diagnose_hub(run_scenario(name, seed=seed))
            truth = TRUE_CAUSE[name]
            top = report.top()
            if truth is None:
                if report.findings or not report.clean:
                    raise AssertionError(
                        f"clean seed {seed}: expected zero findings, got "
                        f"{[f.cause for f in report.findings]}"
                    )
            else:
                if top is None:
                    raise AssertionError(
                        f"{name} seed {seed}: no findings (expected {truth})"
                    )
                if top.cause != truth:
                    raise AssertionError(
                        f"{name} seed {seed}: top finding blames "
                        f"{top.cause!r}, expected {truth!r} (ranking: "
                        f"{[(f.cause, round(f.score, 2)) for f in report.findings]})"
                    )
            summaries.append(
                {
                    "scenario": name,
                    "seed": seed,
                    "top_cause": top.cause if top else None,
                    "findings": len(report.findings),
                    "anomalies": len(report.anomalies),
                    "clean": report.clean,
                    "report_bytes": len(first),
                }
            )
    return summaries
