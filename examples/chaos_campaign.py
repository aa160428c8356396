#!/usr/bin/env python
"""A Monte Carlo chaos campaign: distributions, not anecdotes.

One seeded production run answers "what happened under seed 0"; a
campaign answers "what is the p99 effective training rate over a week
at this scale, with a confidence interval".  This example runs a
256-seed, one-week campaign at 256 nodes, prints the distribution
table, then shows what the single-seed view would have missed.

Run:  PYTHONPATH=src python examples/chaos_campaign.py
"""

import time

from repro.montecarlo import CampaignSpec, run_campaign

spec = CampaignSpec(n_nodes=256)
seeds = range(256)

started = time.perf_counter()
result = run_campaign("chaos", seeds=seeds, weeks=1.0, spec=spec)
elapsed = time.perf_counter() - started

print(result.describe())
print()
print(f"{len(result.seeds)} simulated weeks in {elapsed:.2f}s "
      f"({1000 * elapsed / len(result.seeds):.1f} ms per seed)")
print()

# What a single seed hides: the spread of the headline metric.
rates = result.metric_values("effective_rate")
summary = result.metrics["effective_rate"]
print(f"effective rate: seed 0 alone says {rates[0]:.1%}")
print(f"  across {summary.n} seeds: mean {summary.mean:.1%} "
      f"(95% CI [{summary.ci_low:.1%}, {summary.ci_high:.1%}]), "
      f"worst {summary.min:.1%}")

# The incident mix, pooled over every seed's recovery log.
worst_kind = max(
    (k for k in result.incident_totals if f"downtime:{k}" in
     result.incident_distributions),
    key=lambda k: result.incident_distributions[f"downtime:{k}"].mean,
)
dist = result.incident_distributions[f"downtime:{worst_kind}"]
print(f"costliest fault kind: {worst_kind} "
      f"({dist.count} incidents, mean downtime {dist.mean / 60:.0f} min)")

# The whole campaign is a deterministic document: same seeds -> same
# bytes, whether run serially, in parallel, or from a persistent
# cache.  Uncomment to persist it:
# with open("campaign.json", "w") as fh:
#     fh.write(result.to_json())
