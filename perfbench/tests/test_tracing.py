"""The traced run: coverage, exact counts, self time, clean uninstall.

Each workload is traced over a fixed short slice of its pass (the full
pass is what ``run.py --trace 1`` traces, and it checks coverage there
too), after one untraced warm-up of the same slice, as the run does.
"""

import pytest

import run
import tracing
import workloads
from repro.collectives import fabric
from repro.training import iteration


def short_slice(name):
    """A quick, deterministic op list that still reaches every layer."""
    workload = workloads.build(name, 0)
    ops = workload.ops
    if name == "plan-search":
        ops = [q for q in ops if q.gpus <= 1024 and q.model != "gpt-530b"][:6]
        ops.append(workloads.Query("gpt-530b", 768, 768))
    elif name == "fabric-search":
        ops = [q for q in ops if q.gpus == 3072][:3]
    elif name == "resilience-mc":
        ops = ops[:6]
    workload.ops = ops
    return workload


def traced_slice(workload):
    clock = run.HostClock()
    run.Measurement(clock).run_pass(workload)  # warm-up, untraced
    measurement = run.Measurement(clock)
    with tracing.Tracer() as tracer:
        measurement.run_pass(workload, tracer)
    assert measurement.failed == 0
    return tracer


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def traced_twice(request):
    workload = short_slice(request.param)
    return request.param, traced_slice(workload), traced_slice(workload)


def test_every_required_entry_point_records_calls(traced_twice):
    name, tracer, _ = traced_twice
    assert tracer.missing(name) == []


def test_count_metrics_repeat_exactly(traced_twice):
    _, first, second = traced_twice
    a, b = first.layer_metrics(), second.layer_metrics()
    for metric in tracing.EXACT_COUNTS:
        assert a[metric] == b[metric], metric
    assert first.layer_totals().keys() == second.layer_totals().keys()
    for name, row in first.layer_totals().items():
        assert row["calls"] == second.layer_totals()[name]["calls"], name


def test_self_time_never_exceeds_span_time(traced_twice):
    _, tracer, _ = traced_twice
    totals = tracer.layer_totals()
    for row in totals.values():
        assert 0.0 <= row["self_s"] <= row["total_s"] + 1e-9
    top_level = sum(end - start for _, _, start, end, parent in tracer.spans if parent < 0)
    assert sum(row["self_s"] for row in totals.values()) == pytest.approx(top_level)


def test_spans_share_their_op_id_with_their_parent(traced_twice):
    _, tracer, _ = traced_twice
    for _, op, _, _, parent in tracer.spans:
        if parent >= 0:
            assert tracer.spans[parent][1] == op


def test_names_imported_elsewhere_are_wrapped_and_restored():
    # Held in a local: the tracer rebinds every module global, this
    # test module's included.
    originals = (iteration.build_comm_model, fabric.max_min_fair_rates)
    with tracing.Tracer():
        assert iteration.build_comm_model.__wrapped__ is originals[0]
        assert fabric.max_min_fair_rates.__wrapped__ is originals[1]
    assert (iteration.build_comm_model, fabric.max_min_fair_rates) == originals
