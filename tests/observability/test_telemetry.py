"""Tests for the end-to-end telemetry hub and its unified export."""

import json

import numpy as np
import pytest

from repro.core.features import MEGASCALE_ISO_BATCH
from repro.exec import run_tasks
from repro.fault import CheckpointPlanner, FaultInjector, ProductionRun
from repro.model import GPT_13B, GPT_175B
from repro.network import simulate_bottleneck
from repro.network.topology import ClosFabric
from repro.collectives.runtime import RingCollectiveRuntime
from repro.observability import (
    SUBSYSTEM_LANES,
    MetricsRegistry,
    PercentileDigest,
    TelemetryHub,
    hub_to_chrome_trace,
    lane_recorder,
    lane_summary,
)
from repro.parallel import ParallelPlan, plan_for_gpus
from repro.training import TrainingRunner


# -- metrics registry ---------------------------------------------------------


def test_counter_monotone_and_labelled():
    metrics = MetricsRegistry()
    metrics.inc("rdma_bytes", 10, rank=0)
    metrics.inc("rdma_bytes", 5, rank=0)
    metrics.inc("rdma_bytes", 7, rank=1)
    assert metrics.counter("rdma_bytes", rank=0) == 15
    assert metrics.counter("rdma_bytes", rank=1) == 7
    with pytest.raises(ValueError):
        metrics.inc("rdma_bytes", -1)


def test_gauge_series_and_records():
    metrics = MetricsRegistry()
    for t in range(5):
        metrics.sample("mfu", float(t), 0.5 + 0.01 * t)
    series = metrics.gauge_series("mfu")
    assert len(series) == 5 and series[-1] == (4.0, 0.54)
    kinds = {r["kind"] for r in metrics.records()}
    assert kinds == {"gauge"}


def test_digest_percentiles():
    digest = PercentileDigest()
    for v in range(1, 101):
        digest.observe(float(v))
    assert digest.count == 100
    assert digest.min == 1.0 and digest.max == 100.0
    assert digest.percentile(0.5) == pytest.approx(50.0, abs=2.0)
    assert digest.percentile(0.99) == pytest.approx(99.0, abs=2.0)
    with pytest.raises(ValueError):
        digest.percentile(1.5)


def test_digest_extremes_are_exact_after_compression():
    # With 1000 distinct values the sketch compresses; the edge centroids
    # become weighted means, so only the tracked min/max are exact.
    digest = PercentileDigest(max_centroids=16)
    for v in range(1000):
        digest.observe(float(v))
    assert digest.percentile(0.0) == 0.0
    assert digest.percentile(1.0) == 999.0
    # Interior quantiles are clamped into [min, max].
    for q in (0.01, 0.5, 0.99):
        assert 0.0 <= digest.percentile(q) <= 999.0


def test_digest_empty_and_single_value():
    digest = PercentileDigest()
    assert digest.percentile(0.5) == 0.0
    digest.observe(42.0)
    assert digest.percentile(0.0) == 42.0
    assert digest.percentile(0.5) == 42.0
    assert digest.percentile(1.0) == 42.0


def test_gauge_records_carry_the_full_series():
    metrics = MetricsRegistry()
    for t in range(5):
        metrics.sample("mfu", float(t), 0.5 + 0.01 * t, rank=0)
    (record,) = metrics.records()
    assert record["kind"] == "gauge"
    assert record["samples"] == 5
    assert record["series"] == [[float(t), 0.5 + 0.01 * t] for t in range(5)]


def test_metrics_lines_round_trip_the_series(tmp_path):
    from repro.observability.export import (
        gauge_series_from_records,
        load_metrics_records,
    )

    hub = TelemetryHub()
    for t in range(4):
        hub.sample("training", "mfu", float(t), 0.4 + 0.1 * t, rank=t % 2)
    path = tmp_path / "session.json"
    _, metrics_path = hub.save(str(path))
    records = load_metrics_records(metrics_path)
    series = gauge_series_from_records(records)
    # Per-rank label sets merge into one time-sorted stream per name.
    assert series["training.mfu"] == [(float(t), 0.4 + 0.1 * t) for t in range(4)]


def test_digest_compresses_deterministically():
    a, b = PercentileDigest(max_centroids=16), PercentileDigest(max_centroids=16)
    for v in range(1000):
        a.observe(float(v % 37))
        b.observe(float(v % 37))
    assert a.percentile(0.5) == b.percentile(0.5)
    assert len(a._centroids) <= 16


# -- hub lanes ----------------------------------------------------------------


def test_known_subsystems_get_fixed_lanes():
    hub = TelemetryHub()
    # Register out of order: pids must still match the fixed map.
    for name in ("fault", "training", "network"):
        hub.span(name, "x", 0, 0.0, 1.0)
    assert hub.lane("training") == SUBSYSTEM_LANES["training"]
    assert hub.lane("fault") == SUBSYSTEM_LANES["fault"]
    assert hub.subsystems() == ["training", "network", "fault"]


def test_unknown_subsystem_gets_fresh_lane():
    hub = TelemetryHub()
    pid = hub.lane("datapipe")
    assert pid not in SUBSYSTEM_LANES.values()
    assert hub.lane("datapipe") == pid  # stable


def test_instants_and_attr_coercion():
    hub = TelemetryHub()
    hub.instant("fault", "gpu-ecc", 12.5, rank=3, severity=np.float64(0.5), node=np.int64(7))
    inst = hub.instants[0]
    attrs = dict(inst.attrs)
    assert attrs == {"node": 7, "severity": 0.5}
    assert all(type(v) in (int, float) for v in attrs.values())
    json.dumps(attrs)  # must be serializable


# -- unified chrome export ----------------------------------------------------


def _small_hub():
    hub = TelemetryHub(job_name="unit")
    hub.span("training", "forward", 0, 0.0, 1.0, stream="compute", step=0)
    hub.span("training", "backward", 0, 1.0, 3.0, stream="compute", step=0)
    hub.span("collectives", "all_reduce", 1, 0.5, 0.9, bytes=1024, algorithm="ring")
    hub.instant("fault", "cuda-error", 2.0, rank=4, blast_radius=1)
    hub.sample("training", "mfu", 3.0, 0.55)
    hub.count("exec", "tasks", 3)
    return hub


def test_unified_document_layout():
    document = hub_to_chrome_trace(_small_hub())
    events = document["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    xs = [e for e in events if e["ph"] == "X"]
    instants = [e for e in events if e["ph"] == "i"]
    counters = [e for e in events if e["ph"] == "C"]
    names = {e["args"]["name"] for e in meta if e["name"] == "process_name"}
    assert {"unit/training", "unit/collectives", "unit/fault"} == names
    assert {e["pid"] for e in xs} == {SUBSYSTEM_LANES["training"], SUBSYSTEM_LANES["collectives"]}
    assert instants[0]["pid"] == SUBSYSTEM_LANES["fault"]
    assert counters[0]["name"] == "training.mfu"
    assert counters[0]["args"]["value"] == 0.55
    # Non-metadata events sorted by ts.
    timed = [e for e in events if e["ph"] != "M"]
    assert [e["ts"] for e in timed] == sorted(e["ts"] for e in timed)
    json.dumps(document)  # serializable as-is


def test_lane_summary_and_recorder_round_trip():
    document = json.loads(json.dumps(hub_to_chrome_trace(_small_hub())))
    lanes = {l["name"]: l for l in lane_summary(document)}
    assert lanes["unit/training"]["spans"] == 2
    assert lanes["unit/training"]["counters"] == 1
    assert lanes["unit/fault"]["instants"] == 1
    recorder = lane_recorder(document, "training")
    assert len(recorder) == 2
    span = recorder.spans(name="forward")[0]
    assert span.start == pytest.approx(0.0) and span.end == pytest.approx(1.0)
    with pytest.raises(KeyError):
        lane_recorder(document, "nonexistent")


def test_save_writes_trace_and_metrics(tmp_path):
    hub = _small_hub()
    path = tmp_path / "session.json"
    n_events, metrics_path = hub.save(str(path))
    assert n_events == len(json.loads(path.read_text())["traceEvents"])
    lines = [json.loads(l) for l in open(metrics_path)]
    assert any(r["kind"] == "counter" and r["name"] == "exec.tasks" for r in lines)
    assert str(metrics_path).endswith(".metrics.jsonl")


@pytest.mark.parametrize(
    "reader, text",
    [
        ("trace", "{"),
        ("trace", "[]"),
        ("trace", '{"traceEvents": {}}'),
        ("trace", '{"traceEvents": [1]}'),
        ("trace", '{"traceEvents": [{"ph": 1}]}'),
        ("trace", '{"traceEvents": [{"ph": "X", "ts": NaN}]}'),
        ("trace", '{"traceEvents": [{"ph": "X", "dur": "1"}]}'),
        ("trace", '{"traceEvents": [{"ph": "X", "pid": 1.5}]}'),
        ("trace", '{"traceEvents": [{"ph": "X", "tid": true}]}'),
        ("trace", '{"traceEvents": [{"ph": "X", "args": []}]}'),
        ("trace", '{"traceEvents": [{"ph": "M", "name": "process_name", "args": {"name": 3}}]}'),
        ("trace", '{"traceEvents": [{"ph": "C", "args": {"value": [1]}}]}'),
        ("trace", '{"traceEvents": [{"ph": "X", "args": {"rank": 2}}]}'),
        ("metrics", "[1, 2]"),
        ("metrics", "{"),
        ("metrics", '{"kind": "gauge", "series": [[0, 1]]}'),
        ("metrics", '{"kind": "gauge", "name": "m", "series": [[0]]}'),
        ("metrics", '{"kind": "gauge", "name": "m", "series": [["0", 1]]}'),
    ],
)
def test_readers_reject_saved_files_of_the_wrong_shape(tmp_path, reader, text):
    # A saved file is outside input: a wrong shape is a ValueError naming
    # the file, never an AttributeError or KeyError deeper in a reader.
    from repro.observability.export import load_metrics_records, load_trace_document

    path = tmp_path / "saved.json"
    path.write_text(text + "\n")
    load = load_trace_document if reader == "trace" else load_metrics_records
    with pytest.raises(ValueError, match="saved.json"):
        load(str(path))


# -- instrumented subsystems --------------------------------------------------


def test_training_runner_emits_spans_and_gauges():
    hub = TelemetryHub()
    runner = TrainingRunner(
        GPT_13B,
        ParallelPlan(dp=2, tp=8, pp=2, vpp=2),
        MEGASCALE_ISO_BATCH,
        global_batch=32,
        seed=3,
    )
    result = runner.run(3, hub=hub)
    spans = hub.spans("training")
    assert {s.name for s in spans} == {
        "expectation", "iteration", "forward", "backward",
        "reduce_scatter", "optimizer",
    }
    # 1 expectation + per-step (1 iteration + pp stages x 4 segments).
    assert len(spans) == 1 + 3 * (1 + runner.plan.pp * 4)
    (expectation,) = [s for s in spans if s.name == "expectation"]
    iteration_spans = [s for s in spans if s.name == "iteration"]
    assert len(iteration_spans) == 3
    for span in iteration_spans:
        terms = [span.attr(k) for k in ("pipeline", "data_stall", "dp_exposed", "optimizer", "perturbation")]
        assert span.attr("iteration_time") == pytest.approx(sum(terms))
    assert expectation.attr("dp") == runner.plan.dp
    mfu = hub.metrics.gauge_series("training.mfu", rank=0)
    assert [v for _, v in mfu] == result.mfu_series
    # Spans lie on an absolute clock: step 1 starts after step 0's iteration.
    step0 = [s for s in spans if s.attr("step") == 0]
    step1 = [s for s in spans if s.attr("step") == 1]
    assert min(s.start for s in step1) >= max(s.start for s in step0)
    assert hub.metrics.counter("training.iterations") == 3


def test_collective_runtime_emits_span_with_attrs():
    hub = TelemetryHub()
    fabric = ClosFabric(n_nodes=4, nodes_per_pod=4)
    runtime = RingCollectiveRuntime(fabric, node_of_rank=[0, 1, 2, 3])
    run = runtime.run("all_reduce", 1 << 20, hub=hub)
    (span,) = hub.spans("collectives")
    assert span.name == "all_reduce"
    assert span.attr("bytes") == 1 << 20
    assert span.attr("algorithm") == "ring"
    assert span.duration == pytest.approx(run.total_time)
    assert hub.metrics.counter("collectives.bytes_moved") == 1 << 20
    digest = hub.metrics.digest("collectives.step_time", kind="all_reduce")
    assert digest is not None and digest.count == len(run.steps)


def test_congestion_emits_utilization_samples():
    hub = TelemetryHub()
    result = simulate_bottleneck("megascale", n_flows=4, duration=0.01, hub=hub)
    series = hub.metrics.gauge_series("network.link_utilization[megascale]", rank=0)
    assert len(series) > 10
    assert all(0.0 <= v <= 1.0 + 1e-9 for _, v in series)
    (span,) = hub.spans("network")
    assert span.attr("goodput_fraction") == pytest.approx(result.goodput_fraction)


def _double(x):
    return 2 * x


def test_sweep_executor_emits_candidate_spans():
    hub = TelemetryHub()
    results, stats = run_tasks(_double, [1, 2, 3], hub=hub)
    assert results == [2, 4, 6]
    spans = hub.spans("exec")
    assert len(spans) == 3
    # Deterministic pseudo-time axis: task i occupies [i, i+1).
    assert [(s.start, s.end) for s in spans] == [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]
    assert hub.metrics.counter("exec.tasks") == 3


def test_sweep_executor_memo_counters_match_stats():
    from repro.core import compare, job_175b

    hub = TelemetryHub()
    jobs = [job_175b(256, 768), job_175b(512, 768)]
    _, stats = run_tasks(compare, jobs, hub=hub)
    total_hits = sum(
        hub.metrics.counter("exec.memo_hits", cache=name) for name in stats.caches
    )
    total_misses = sum(
        hub.metrics.counter("exec.memo_misses", cache=name) for name in stats.caches
    )
    assert total_hits == stats.hits
    assert total_misses == stats.misses
    spans = hub.spans("exec")
    assert sum(s.attr("memo_hits") for s in spans) == stats.hits


# -- production run integration ----------------------------------------------


def _production_run(hub, seed=7, weeks=1.0):
    plan = plan_for_gpus(256, tp=8, pp=8)
    injector = FaultInjector(n_nodes=256, rng=np.random.default_rng(seed))
    run = ProductionRun(
        plan,
        injector,
        planner=CheckpointPlanner(model=GPT_175B, plan=plan),
        rng=np.random.default_rng(seed),
        hub=hub,
    )
    return run, run.run(weeks * 7 * 86400.0)


def test_production_run_emits_fault_and_monitor_telemetry():
    hub = TelemetryHub()
    run, result = _production_run(hub)
    assert result.restarts >= 1
    fault_spans = hub.spans("fault")
    assert {s.name for s in fault_spans} >= {"detect", "recover"}
    arrivals = [i for i in hub.instants if i.subsystem == "fault"]
    assert len(arrivals) >= result.restarts
    findings = [i for i in hub.instants if i.subsystem == "monitor"]
    assert len(findings) >= result.restarts  # one transfer verdict per incident
    assert run.monitors is not None and len(run.monitors.findings) == len(findings)
    # Instants fire at the simulated detection time, inside the recovery span.
    recover = {(s.rank, s.start): s for s in fault_spans if s.name == "recover"}
    for inst in findings:
        assert any(
            s.start <= inst.ts <= s.end for s in fault_spans if s.name == "recover"
        )
    # Effective-iterations gauge tracked the run.
    series = hub.metrics.gauge_series("fault.effective_iterations", rank=0)
    assert series and series[-1][1] == pytest.approx(result.effective_iterations)


def test_production_trace_document_is_deterministic():
    docs = []
    for _ in range(2):
        hub = TelemetryHub()
        _production_run(hub, seed=11, weeks=0.5)
        docs.append(json.dumps(hub.to_chrome_trace(), sort_keys=True))
    assert docs[0] == docs[1]


def test_production_without_hub_unchanged():
    """hub=None must not perturb the priced timeline (same rng draws)."""
    _, with_hub = _production_run(TelemetryHub(), seed=13, weeks=0.5)
    plan = plan_for_gpus(256, tp=8, pp=8)
    injector = FaultInjector(n_nodes=256, rng=np.random.default_rng(13))
    bare = ProductionRun(
        plan,
        injector,
        planner=CheckpointPlanner(model=GPT_175B, plan=plan),
        rng=np.random.default_rng(13),
    ).run(0.5 * 7 * 86400.0)
    assert bare.restarts == with_hub.restarts
    assert bare.completed_iterations == with_hub.completed_iterations
    assert bare.wall_time == with_hub.wall_time
