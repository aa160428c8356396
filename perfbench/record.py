#!/usr/bin/env python3
"""Record the answers the benchmark checks its ops against.

For ``plan-search`` and ``fabric-search`` the leaderboard of every query
the generators can emit comes from brute-force (``exhaustive=True``)
search, so the benchmark's pruned searches are held to the exhaustive
answer.  For ``resilience-mc`` the SHA-256 of every campaign's JSON is
recorded.  (``anchor-replay`` checks against the committed
``data/calibration/baseline_report.json`` instead.)

Rerun only when a change is meant to alter simulated results::

    python3 perfbench/record.py        # rewrites perfbench/expected.json
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def record_search(backend: str, min_gpus: int) -> dict:
    from repro.exec.memo import clear_caches
    from repro.model import MODEL_CATALOG
    from repro.parallel.search import search_plans

    table = {}
    for query in workloads.plan_queries(min_gpus):
        clear_caches()
        result = search_plans(
            MODEL_CATALOG[query.model], query.gpus, query.batch,
            top_k=workloads.TOP_K, backend=backend, exhaustive=True,
        )
        table[query.key] = workloads.leaderboard(result.top)
        print(f"{backend:>8s} {query.key}", flush=True)
    return table


def record_mc() -> dict:
    from repro.montecarlo import run_campaign

    digests = {}
    for scenario in workloads.MC_SCENARIOS:
        for block in range(workloads.MC_BLOCKS):
            campaign = workloads.Campaign(scenario, block)
            result = run_campaign(scenario, seeds=campaign.seeds, weeks=workloads.MC_WEEKS)
            digests[campaign.key] = workloads.campaign_digest(result.to_json())
    return digests


def main() -> int:
    expected = {
        "plan-search": record_search("analytic", 0),
        "fabric-search": record_search("fabric", workloads.FABRIC_MIN_GPUS),
        "resilience-mc": record_mc(),
    }
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {workloads.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
