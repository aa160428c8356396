"""The benchmark's four workloads: inputs, the op each input drives, and
the check that the op's output is right.

Every workload has a fixed *universe* of inputs.  One *pass* runs the
whole universe once, in an order drawn from the workload seed, so every
run measures the same mix of work whatever its seed.  An *op* is one
user-facing call into the simulator; its output is checked against a
recorded answer (``expected.json`` or the committed calibration
baseline), so a fast wrong answer counts as a failed op.

Inputs are generated, and fixtures and expected outputs loaded, by
:func:`build`; nothing here runs at import time.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

# The Table-2 strong-scaling ladder: (GPUs, global batch).
LADDER: Tuple[Tuple[int, int], ...] = (
    (256, 768),
    (512, 768),
    (768, 768),
    (1024, 768),
    (3072, 6144),
    (6144, 6144),
    (8192, 6144),
    (12288, 6144),
)
# Below this size the fabric backend degenerates to the alpha-beta answer.
FABRIC_MIN_GPUS = 3072
TOP_K = 5

# resilience-mc: campaigns over blocks of consecutive simulation seeds.
MC_SCENARIOS = ("chaos", "scheduler")
MC_BLOCKS = 32
MC_BLOCK_SEEDS = 8
MC_WEEKS = 1.0

WORKLOADS = ("plan-search", "anchor-replay", "fabric-search", "resilience-mc")


@dataclass(frozen=True)
class Query:
    """One plan-search input: a catalog model on one ladder rung."""

    model: str
    gpus: int
    batch: int

    @property
    def key(self) -> str:
        return f"{self.model}@{self.gpus}/{self.batch}"


@dataclass(frozen=True)
class Campaign:
    """One resilience-mc input: a scenario over one seed block."""

    scenario: str
    block: int

    @property
    def seeds(self) -> range:
        start = self.block * MC_BLOCK_SEEDS
        return range(start, start + MC_BLOCK_SEEDS)

    @property
    def key(self) -> str:
        return f"{self.scenario}/{self.block}"


@dataclass
class Workload:
    """A workload's pass (inputs in seed order) and how to run and check it."""

    name: str
    ops: List[Any]  # one pass, in seed-drawn order
    run: Callable[[Any], Any]  # the op: one user-facing call, from cold caches
    check: Callable[[Any, Any], bool]  # is the op's output right?


def seeded_order(items, seed: int, salt: str) -> list:
    """``items`` in an order drawn from ``seed`` (same seed, same order)."""
    order = list(items)
    random.Random(f"{salt}:{seed}").shuffle(order)
    return order


def has_feasible_plan(query: Query) -> bool:
    """Whether ``search_plans`` finds any candidate (its own screen)."""
    from repro.hardware.gpu import AMPERE
    from repro.model import MODEL_CATALOG
    from repro.parallel.tuner import candidate_plans, feasible

    model = MODEL_CATALOG[query.model]
    return any(
        plan.pp <= 64 and feasible(model, plan, AMPERE, query.batch)
        for plan in candidate_plans(model, query.gpus)
    )


def plan_queries(min_gpus: int = 0) -> List[Query]:
    """Every feasible catalog-model x ladder cell at ``min_gpus`` or more."""
    from repro.model import MODEL_CATALOG

    cells = [
        Query(model, gpus, batch)
        for model in sorted(MODEL_CATALOG)
        for gpus, batch in LADDER
        if gpus >= min_gpus
    ]
    return [q for q in cells if has_feasible_plan(q)]


def mc_campaigns(seed: int) -> List[Campaign]:
    """Every (scenario, block) once, alternating chaos and scheduler."""
    chaos = seeded_order(range(MC_BLOCKS), seed, "chaos")
    scheduler = seeded_order(range(MC_BLOCKS), seed, "scheduler")
    ops: List[Campaign] = []
    for a, b in zip(chaos, scheduler):
        ops += [Campaign("chaos", a), Campaign("scheduler", b)]
    return ops


def leaderboard(top) -> list:
    """A search result's top-k in the form recorded in ``expected.json``."""
    return [[repr(t.plan), t.iteration_time, t.mfu] for t in top]


def campaign_digest(document: str) -> str:
    return hashlib.sha256(document.encode()).hexdigest()


def load_expected() -> Dict[str, Dict[str, Any]]:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _search_workload(name: str, seed: int, backend: str, min_gpus: int) -> Workload:
    import repro.exec.memo as memo
    import repro.parallel.search as search
    from repro.model import MODEL_CATALOG

    expected = load_expected()[name]
    ops = seeded_order(plan_queries(min_gpus), seed, name)

    def run(query: Query):
        memo.clear_caches()  # every CLI ``tune`` process starts cold
        return search.search_plans(
            MODEL_CATALOG[query.model], query.gpus, query.batch,
            top_k=TOP_K, backend=backend,
        )

    def check(query: Query, result) -> bool:
        return leaderboard(result.top) == expected[query.key]

    return Workload(name, ops, run, check)


def _anchor_workload(seed: int) -> Workload:
    import repro.calibration as calibration
    import repro.exec.memo as memo

    fixtures = calibration.default_fixture_dir()
    anchors = calibration.load_anchors(fixtures)
    profile = calibration.CalibratedProfile.load(os.path.join(fixtures, "profile.json"))
    with open(os.path.join(fixtures, "baseline_report.json"), encoding="utf-8") as fh:
        baseline = {row["anchor_id"]: row for row in json.load(fh)["anchors"]}
    ops = seeded_order(anchors, seed, "anchor-replay")

    def run(anchor):
        # Cold, like a fresh process: with caches kept across a pass, the
        # work of an op would depend on which anchors the seed put before
        # it (20 cluster sizes cycle through the 8-entry fabric intern).
        memo.clear_caches()
        return calibration.predict_anchor(anchor, profile=profile)

    def check(anchor, prediction) -> bool:
        row = baseline[anchor.id]
        return (
            prediction.predicted == row["predicted"]
            and prediction.iteration_time == row["iteration_time"]
        )

    return Workload("anchor-replay", ops, run, check)


def _mc_workload(seed: int) -> Workload:
    import repro.montecarlo as montecarlo

    expected = load_expected()["resilience-mc"]
    ops = mc_campaigns(seed)

    def run(campaign: Campaign) -> str:
        result = montecarlo.run_campaign(
            campaign.scenario, seeds=campaign.seeds, weeks=MC_WEEKS
        )
        return result.to_json()

    def check(campaign: Campaign, document: str) -> bool:
        return campaign_digest(document) == expected[campaign.key]

    return Workload("resilience-mc", ops, run, check)


def build(name: str, seed: int) -> Workload:
    """Generate the workload's inputs and load what its checks compare to."""
    if name == "plan-search":
        return _search_workload(name, seed, backend="analytic", min_gpus=0)
    if name == "fabric-search":
        return _search_workload(name, seed, backend="fabric", min_gpus=FABRIC_MIN_GPUS)
    if name == "anchor-replay":
        return _anchor_workload(seed)
    if name == "resilience-mc":
        return _mc_workload(seed)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
