"""Layer tracing for the benchmark's traced run.

A :class:`Tracer` wraps the public entry points of the simulator's
layers — from the benchmark's own files, without touching the program —
and records one span per call: entry point, op id (the request it
belongs to), start, end and parent span.  Spans stay in memory while the
workload runs and are written out at the end.  A layer's *self* time is
its spans' durations minus the child spans they cover.

Entry points imported by name into other modules (``build_comm_model``
into ``repro.training.iteration``, ``max_min_fair_rates`` into
``repro.collectives.fabric`` …) are wrapped in every module that holds
them, so no call path reads a silent zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

Counts = Callable[[tuple, dict, Any], Dict[str, int]]


def _makespan_tasks(args, kwargs, result):
    engine = args[0]
    m = args[1] if len(args) > 1 else kwargs["m"]
    return {"tasks": 2 * engine.plan.pp * engine.plan.vpp * m}


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped call: ``module.qualname`` (``Class.method`` or function)."""

    name: str  # span name, "<layer>.<call>"
    module: str
    qualname: str
    counts: Optional[Counts] = None  # extra work counters per call


ENTRY_POINTS: Tuple[EntryPoint, ...] = (
    EntryPoint("search.search_plans", "repro.parallel.search", "search_plans",
               lambda a, k, r: {"feasible": r.stats.feasible,
                                "evaluated": r.stats.evaluated}),
    EntryPoint("groups.build_comm_model", "repro.collectives.groups", "build_comm_model"),
    EntryPoint("groups.ring", "repro.collectives.groups", "GroupCommModel.ring_bandwidth",
               lambda a, k, r: {"ranks": len(a[1])}),
    EntryPoint("groups.dp_collective", "repro.collectives.groups",
               "GroupCommModel.dp_collective_time"),
    EntryPoint("topology.build", "repro.network.topology", "ClosFabric.__post_init__",
               lambda a, k, r: {"links": len(a[0].links)}),
    EntryPoint("topology.path", "repro.network.topology", "ClosFabric.path"),
    EntryPoint("iteration.init", "repro.training.iteration", "IterationEngine.__init__"),
    EntryPoint("iteration.makespan", "repro.training.iteration",
               "IterationEngine.pipeline_makespan", _makespan_tasks),
    EntryPoint("iteration.simulate", "repro.training.iteration", "IterationEngine.simulate"),
    EntryPoint("iteration.bounds", "repro.training.iteration",
               "IterationEngine.analytic_bounds"),
    EntryPoint("fabric.collective", "repro.collectives.fabric", "fabric_collective_cost"),
    EntryPoint("flow.solve", "repro.network.flow", "max_min_fair_rates",
               lambda a, k, r: {"flows": len(a[0])}),
    EntryPoint("fault.sample", "repro.fault.faults", "FaultInjector.sample",
               lambda a, k, r: {"events": len(r)}),
    EntryPoint("fault.run", "repro.fault.driver", "ProductionRun.run"),
    EntryPoint("scheduler.run", "repro.scheduler.scheduler", "ClusterScheduler.run",
               lambda a, k, r: {"decisions": len(r.decisions)}),
    EntryPoint("montecarlo.run_campaign", "repro.montecarlo.engine", "run_campaign"),
    EntryPoint("montecarlo.to_json", "repro.montecarlo.result", "CampaignResult.to_json"),
    EntryPoint("digest.merge", "repro.observability.telemetry", "PercentileDigest.merge"),
    EntryPoint("calibration.predict", "repro.calibration.fit", "predict_anchor"),
)

# Entry points each workload must reach: a zero here is a benchmark defect.
REQUIRED: Dict[str, Tuple[str, ...]] = {
    "plan-search": (
        "search.search_plans", "groups.build_comm_model", "groups.ring",
        "groups.dp_collective", "topology.build", "iteration.init",
        "iteration.makespan", "iteration.simulate", "iteration.bounds",
    ),
    "anchor-replay": (
        "calibration.predict", "groups.build_comm_model", "groups.ring",
        "groups.dp_collective", "topology.build", "iteration.init",
        "iteration.makespan", "iteration.simulate",
    ),
    "fabric-search": (
        "search.search_plans", "groups.build_comm_model", "groups.dp_collective",
        "topology.build", "topology.path", "iteration.init", "iteration.makespan",
        "iteration.simulate", "iteration.bounds", "fabric.collective", "flow.solve",
    ),
    "resilience-mc": (
        "fault.sample", "fault.run", "scheduler.run", "montecarlo.run_campaign",
        "montecarlo.to_json", "digest.merge",
    ),
}

# (metric, unit) of the traced run, in BENCHMARK.json order.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("groups.ring_s", "s"), ("groups.ring_calls", "count"),
    ("groups.ring_ranks", "count"), ("groups.dp_collective_s", "s"),
    ("groups.build_s", "s"),
    ("topology.build_s", "s"), ("topology.builds", "count"),
    ("topology.links", "count"), ("topology.intern_hit_ratio", "ratio"),
    ("topology.intern_evictions", "count"), ("topology.path_s", "s"),
    ("topology.path_calls", "count"),
    ("iteration.makespan_s", "s"), ("iteration.makespan_calls", "count"),
    ("iteration.tasks", "count"), ("iteration.ns_per_task", "ns"),
    ("iteration.simulate_s", "s"), ("iteration.bounds_s", "s"),
    ("iteration.init_s", "s"),
    ("search.feasible", "count"), ("search.evaluated", "count"),
    ("search.eval_ratio", "ratio"),
    ("fabric.collective_s", "s"), ("fabric.memo_hit_ratio", "ratio"),
    ("flow.solve_s", "s"), ("flow.flows", "count"), ("flow.us_per_flow", "us"),
    ("fault.sample_s", "s"), ("fault.events", "count"), ("fault.run_s", "s"),
    ("scheduler.run_s", "s"), ("scheduler.decisions", "count"),
    ("montecarlo.self_s", "s"), ("montecarlo.to_json_s", "s"),
    ("digest.merge_s", "s"),
    ("calibration.predict_s", "s"),
    ("memo.hit_ratio", "ratio"), ("memo.evictions", "count"),
    ("trace.untraced_ops_per_s", "1/s"), ("trace.traced_ops_per_s", "1/s"),
    ("trace.overhead", "ratio"),
)

# Counts that repeat exactly across traced runs at one seed.
EXACT_COUNTS = (
    "search.evaluated", "topology.builds", "iteration.tasks", "flow.flows",
    "fault.events", "scheduler.decisions",
)


def _resolve(entry: EntryPoint) -> Tuple[Any, str, Any]:
    """(owner, attribute, original) for one entry point."""
    owner: Any = importlib.import_module(entry.module)
    *path, attr = entry.qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, vars(owner)[attr]


def _cache_counters() -> Dict[str, Tuple[int, int, int]]:
    from repro.exec.memo import registered_caches

    return {
        name: (cache.hits, cache.misses, cache.evictions)
        for name, cache in registered_caches().items()
    }


class Tracer:
    """Spans around every :data:`ENTRY_POINTS` call while installed.

    Use as a context manager; the originals are restored on exit.  Set
    :attr:`op` to the index of the op being run so its spans share it.
    """

    def __init__(self) -> None:
        self.op = -1
        self.spans: List[Optional[Tuple[int, int, float, float, int]]] = []
        self.counts: List[Dict[str, int]] = [{} for _ in ENTRY_POINTS]
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._caches_before: Dict[str, Tuple[int, int, int]] = {}
        self._caches_after: Dict[str, Tuple[int, int, int]] = {}

    # -- installation --------------------------------------------------------

    def _wrap(self, index: int, entry: EntryPoint, fn: Callable) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts[index]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, self.op, start, end, parent)
            if entry.counts is not None:
                for key, value in entry.counts(args, kwargs, result).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for index, entry in enumerate(ENTRY_POINTS):
            owner, attr, original = _resolve(entry)
            wrapper = self._wrap(index, entry, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            # A module function: rebind it wherever it was imported by name.
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if not namespace:
                    continue
                for name, value in list(namespace.items()):
                    if value is original:
                        self._patch(module, name, wrapper)
        self._caches_before = _cache_counters()
        return self

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def __exit__(self, *exc_info) -> None:
        self._caches_after = _cache_counters()
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- read-out ------------------------------------------------------------

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per entry point: calls, total and self seconds, extra counts."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            _, _, start, end, parent = span
            if parent >= 0:
                child[parent] += end - start
        totals = {
            entry.name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, **self.counts[i]}
            for i, entry in enumerate(ENTRY_POINTS)
        }
        for slot, (index, _, start, end, _) in enumerate(self.spans):
            row = totals[ENTRY_POINTS[index].name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[slot]
        return totals

    def cache_deltas(self) -> Dict[str, Tuple[int, int, int]]:
        """(hits, misses, evictions) each memo cache gained while traced."""
        deltas = {}
        for name, after in self._caches_after.items():
            before = self._caches_before.get(name, (0, 0, 0))
            deltas[name] = tuple(a - b for a, b in zip(after, before))
        return deltas

    def missing(self, workload: str) -> List[str]:
        """Required entry points of ``workload`` that recorded no call."""
        totals = self.layer_totals()
        return [name for name in REQUIRED[workload] if totals[name]["calls"] == 0]

    def layer_metrics(self) -> Dict[str, float]:
        """Every :data:`LAYER_METRICS` value except the ``trace.*`` ones."""
        t = self.layer_totals()
        caches = self.cache_deltas()

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        def hit_ratio(*names: str) -> float:
            hits = sum(caches.get(n, (0, 0, 0))[0] for n in names)
            misses = sum(caches.get(n, (0, 0, 0))[1] for n in names)
            return ratio(hits, hits + misses)

        makespan, flow = t["iteration.makespan"], t["flow.solve"]
        search = t["search.search_plans"]
        return {
            "groups.ring_s": t["groups.ring"]["self_s"],
            "groups.ring_calls": t["groups.ring"]["calls"],
            "groups.ring_ranks": t["groups.ring"].get("ranks", 0),
            "groups.dp_collective_s": t["groups.dp_collective"]["self_s"],
            "groups.build_s": t["groups.build_comm_model"]["self_s"],
            "topology.build_s": t["topology.build"]["self_s"],
            "topology.builds": t["topology.build"]["calls"],
            "topology.links": t["topology.build"].get("links", 0),
            "topology.intern_hit_ratio": hit_ratio("clos_fabric"),
            "topology.intern_evictions": caches.get("clos_fabric", (0, 0, 0))[2],
            "topology.path_s": t["topology.path"]["self_s"],
            "topology.path_calls": t["topology.path"]["calls"],
            "iteration.makespan_s": makespan["self_s"],
            "iteration.makespan_calls": makespan["calls"],
            "iteration.tasks": makespan.get("tasks", 0),
            "iteration.ns_per_task": 1e9 * ratio(makespan["self_s"], makespan.get("tasks", 0)),
            "iteration.simulate_s": t["iteration.simulate"]["self_s"],
            "iteration.bounds_s": t["iteration.bounds"]["self_s"],
            "iteration.init_s": t["iteration.init"]["self_s"],
            "search.feasible": search.get("feasible", 0),
            "search.evaluated": search.get("evaluated", 0),
            "search.eval_ratio": ratio(search.get("evaluated", 0), search.get("feasible", 0)),
            "fabric.collective_s": t["fabric.collective"]["self_s"],
            "fabric.memo_hit_ratio": hit_ratio("fabric_collective_cost"),
            "flow.solve_s": flow["self_s"],
            "flow.flows": flow.get("flows", 0),
            "flow.us_per_flow": 1e6 * ratio(flow["self_s"], flow.get("flows", 0)),
            "fault.sample_s": t["fault.sample"]["self_s"],
            "fault.events": t["fault.sample"].get("events", 0),
            "fault.run_s": t["fault.run"]["self_s"],
            "scheduler.run_s": t["scheduler.run"]["self_s"],
            "scheduler.decisions": t["scheduler.run"].get("decisions", 0),
            "montecarlo.self_s": t["montecarlo.run_campaign"]["self_s"],
            "montecarlo.to_json_s": t["montecarlo.to_json"]["self_s"],
            "digest.merge_s": t["digest.merge"]["self_s"],
            "calibration.predict_s": t["calibration.predict"]["self_s"],
            "memo.hit_ratio": hit_ratio(*caches),
            "memo.evictions": sum(delta[2] for delta in caches.values()),
        }

    def write(self, path: str) -> None:
        """Dump every span: [entry, op, start_us, duration_us, parent]."""
        origin = min((span[2] for span in self.spans), default=0.0)
        document = {
            "entry_points": [entry.name for entry in ENTRY_POINTS],
            "columns": ["entry", "op", "start_us", "duration_us", "parent"],
            "spans": [
                [index, op, round((start - origin) * 1e6, 3),
                 round((end - start) * 1e6, 3), parent]
                for index, op, start, end, parent in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh, separators=(",", ":"))
