"""The workload generators: deterministic per seed, feasible inputs only."""

import json
import os

import pytest

import run
import tracing
import workloads
from repro.model import MODEL_CATALOG
from repro.parallel.search import search_plans


def keys(workload):
    return [getattr(op, "key", None) or op.id for op in workload.ops]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_order(name):
    first, again, other = (workloads.build(name, s) for s in (7, 7, 8))
    assert keys(first) == keys(again)
    assert keys(first) != keys(other)
    assert sorted(keys(first)) == sorted(keys(other))  # one universe, reordered
    assert len(set(keys(first))) == len(first.ops)


def test_plan_queries_are_the_recorded_feasible_cells():
    queries = workloads.plan_queries()
    expected = workloads.load_expected()
    assert {q.key for q in queries} == set(expected["plan-search"])
    assert all(1 <= len(board) <= workloads.TOP_K for board in expected["plan-search"].values())
    assert len({q.model for q in queries}) == len(MODEL_CATALOG)


def test_infeasible_cells_are_never_drawn():
    drawn = {q.key for q in workloads.plan_queries()}
    for model in MODEL_CATALOG:
        for gpus, batch in workloads.LADDER:
            query = workloads.Query(model, gpus, batch)
            if query.key in drawn:
                continue
            with pytest.raises(ValueError, match="no feasible plan"):
                search_plans(MODEL_CATALOG[model], gpus, batch)
    # Below 3,072 GPUs gpt-530b fits only at 768 GPUs.
    assert "gpt-530b@256/768" not in drawn
    assert "gpt-530b@1024/768" not in drawn


def test_fabric_search_stays_at_or_above_3072_gpus():
    queries = workloads.build("fabric-search", 3).ops
    assert queries and min(q.gpus for q in queries) >= workloads.FABRIC_MIN_GPUS
    assert {q.key for q in queries} == set(workloads.load_expected()["fabric-search"])


def test_anchor_replay_covers_every_committed_anchor_once():
    from repro.calibration import load_anchors

    ops = workloads.build("anchor-replay", 5).ops
    assert sorted(a.id for a in ops) == sorted(a.id for a in load_anchors())
    assert len(ops) == 32


def test_resilience_mc_alternates_scenarios_over_recorded_blocks():
    ops = workloads.mc_campaigns(11)
    assert [c.scenario for c in ops] == list(workloads.MC_SCENARIOS) * workloads.MC_BLOCKS
    recorded = workloads.load_expected()["resilience-mc"]
    assert sorted(c.key for c in ops) == sorted(recorded)


def test_benchmark_json_names_every_workload_and_metric():
    path = os.path.join(os.path.dirname(workloads.HERE), "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)


def test_tail_quantile_leaves_ten_ops_in_a_minimal_run():
    latencies = [float(i) for i in range(run.MIN_PASSES * 36)]
    tail = run.harrell_davis(latencies, run.tail_quantile(36))
    assert sum(1 for x in latencies if x > tail) == run.TAIL_OPS_BEYOND


def test_harrell_davis_tracks_the_plain_quantile():
    assert run.harrell_davis([3.0] * 40, 0.5) == pytest.approx(3.0)
    evenly = [float(i) for i in range(101)]
    for q in (0.25, 0.5, 0.9):
        assert run.harrell_davis(evenly, q) == pytest.approx(100 * q, abs=0.6)
