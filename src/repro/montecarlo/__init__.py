"""Monte Carlo resilience campaigns: many-seed chaos distributions.

``run_campaign`` fans hundreds of seeded chaos or scheduler simulations
over process pools, streams per-seed metrics into mergeable percentile
sketches, and reduces them to a deterministic :class:`CampaignResult`
with bootstrap confidence intervals.  See :mod:`repro.montecarlo.engine`
for the layer-by-layer design and the determinism contract.
"""

from .engine import CampaignSpec, run_campaign
from .result import CampaignResult, MetricSummary, bootstrap_ci

__all__ = [
    "CampaignSpec",
    "run_campaign",
    "CampaignResult",
    "MetricSummary",
    "bootstrap_ci",
]
