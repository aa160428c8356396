"""End-to-end smoke gates: multi-seed scenario runs and CLI round trips.

They carry the ``smoke`` marker, which tier-1 deselects; CI runs them
in a job of their own::

    PYTHONPATH=src python -m pytest -m smoke --basetemp=smoke-out

Each test writes what it produced (summaries, traces, reports) under its
``tmp_path``, so ``smoke-out/`` holds every artifact afterwards.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.observability import lane_summary, load_trace_document
from tests.oracles.gates import diagnose_smoke, multi_tenant_chaos

pytestmark = pytest.mark.smoke


def _save_json(path, document):
    path.write_text(json.dumps(document, indent=2, default=str) + "\n")


def _lanes(trace_path):
    return lane_summary(load_trace_document(str(trace_path)))


def _chaos_run(seed, n_nodes=128):
    """A zero-spare correlated production run under a flaky HDFS: the full
    degraded-mode pipeline, with weeks of faults compressed 20x."""
    from repro.fault import (
        FLAKY_HDFS,
        CheckpointPlanner,
        CorrelatedFaultInjector,
        DomainTopology,
        ProductionRun,
    )
    from repro.model import GPT_175B
    from repro.parallel import plan_for_gpus

    plan = plan_for_gpus(n_nodes * 8, tp=8, pp=8, vpp=2)
    injector = CorrelatedFaultInjector(
        n_nodes=n_nodes,
        topology=DomainTopology(n_nodes=n_nodes, nodes_per_rack=4, nodes_per_pod=16),
        rng=np.random.default_rng(seed),
        rate_multiplier=20.0,
    )
    return ProductionRun(
        plan,
        injector,
        planner=CheckpointPlanner(model=GPT_175B, plan=plan),
        rng=np.random.default_rng(seed),
        spares=0,
        integrity=FLAKY_HDFS,
    )


def test_chaos_smoke(tmp_path):
    """A zero-spare correlated production run for seeds 0-2: every recovery
    timeline is monotone and a replay under the same seed matches it."""
    week = 7 * 86400.0
    summaries = []
    for seed in (0, 1, 2):
        result = _chaos_run(seed).run(duration=week)
        again = _chaos_run(seed).run(duration=week)
        timeline = [
            (r.fault.time, r.detected_at, r.diagnosed_at, r.resumed_at)
            for r in result.log.records
        ]
        for record in timeline:
            assert list(record) == sorted(record), f"non-monotone recovery timeline: {record}"
        assert timeline == [
            (r.fault.time, r.detected_at, r.diagnosed_at, r.resumed_at)
            for r in again.log.records
        ], f"seed {seed}: run is not deterministic"
        assert result.wall_time > 0 and result.completed_iterations >= 0
        summaries.append(
            {
                "seed": seed,
                "restarts": result.restarts,
                "fallback_loads": result.log.fallback_loads(),
                "degraded_intervals": len(result.log.degraded),
                "final_dp": result.final_dp,
                "effective_rate": result.effective_rate(6.34),
            }
        )
    _save_json(tmp_path / "chaos-smoke.json", summaries)


def test_scheduler_priority_beats_fifo_on_goodput(tmp_path):
    """Multi-tenant chaos for seeds 0-2: multi_tenant_chaos checks replay
    identity, monotone goodput, balanced spare ledgers and bounded
    stalls; the arbitrating scheduler must beat FIFO spares on goodput."""
    summaries = multi_tenant_chaos(seeds=(0, 1, 2))
    _save_json(tmp_path / "scheduler-smoke.json", summaries)
    for row in summaries:
        assert row["goodput_priority"] > row["goodput_fifo"], row


def test_scheduler_trace_has_a_decision_lane(tmp_path, capsys):
    """Arbitration decisions land on their own lane and survive a trace
    round trip."""
    trace = tmp_path / "scheduler-trace.json"
    assert main(["schedule", "--seed", "0", "--compare", "--trace", str(trace)]) == 0
    capsys.readouterr()
    lanes = {lane["name"].split("/")[-1]: lane for lane in _lanes(trace)}
    assert "scheduler" in lanes, sorted(lanes)
    assert lanes["scheduler"]["instants"] > 0, "no scheduler decisions on the lane"


def test_diagnose_smoke(tmp_path):
    """Every injected-cause scenario for seeds 0-2: diagnose_smoke raises
    unless top-1 blames the injected cause, the clean scenario yields no
    findings and each report is byte-identical across re-diagnosis."""
    _save_json(tmp_path / "diagnose-smoke.json", diagnose_smoke(seeds=(0, 1, 2)))


def test_saved_trace_diagnoses_like_the_live_hub(tmp_path, capsys):
    """A saved trace diagnosed through the CLI gives the live hub's report,
    byte for byte."""
    from repro.observability import diagnose_hub
    from repro.observability.diagnosis import run_scenario

    trace = tmp_path / "diagnose-trace.json"
    hub = run_scenario("tor-blast", seed=0)
    hub.save(str(trace))
    report = diagnose_hub(hub)
    assert report.top().cause == "tor-blast", report.top()
    live = tmp_path / "diagnose-report.json"
    live.write_text(report.to_json() + "\n")

    cli = tmp_path / "diagnose-report-cli.json"
    assert main(["diagnose", "--trace", str(trace), "--out", str(cli)]) == 0
    capsys.readouterr()
    assert cli.read_bytes() == live.read_bytes()


def test_production_trace_covers_every_subsystem_lane(tmp_path, capsys):
    """A correlated production run with --trace yields one round-trippable
    document with a non-empty lane per subsystem it claims."""
    trace = tmp_path / "trace.json"
    argv = [
        "production", "--gpus", "1024", "--weeks", "1", "--seed", "1",
        "--correlated", "--trace", str(trace),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    lanes = _lanes(trace)
    names = {lane["name"].split("/")[-1] for lane in lanes}
    missing = {"training", "collectives", "network", "fault", "monitor"} - names
    assert not missing, f"missing subsystem lanes: {sorted(missing)}"
    for lane in lanes:
        total = lane["spans"] + lane["instants"] + lane["counters"]
        assert total > 0, f"lane {lane['name']} (pid {lane['pid']}) is empty"


def test_fabric_validation_report_is_deterministic(tmp_path):
    """The flow-level backend reproduces §3.6 on two pods — same-ToR
    placement no slower, port splitting strictly beneficial — and is
    bit-deterministic per seed."""
    from repro.network import validation_report

    first = validation_report(n_nodes=64, nodes_per_pod=32, group_size=8, seed=0)
    second = validation_report(n_nodes=64, nodes_per_pod=32, group_size=8, seed=0)
    (tmp_path / "validation-report.txt").write_text(first.describe() + "\n")
    assert first == second, "validation report is not deterministic"
    assert first.port_split_benefit > 1.0, first.port_split_benefit
    assert first.same_tor_speedup >= 1.0, first.same_tor_speedup
    assert first.alpha_beta_max_rel_error < 1e-9, first.alpha_beta_max_rel_error
