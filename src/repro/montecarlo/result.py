"""Campaign aggregation: distribution summaries and bootstrap CIs.

A campaign reduces hundreds of per-seed simulations to distributions.
Two kinds of summaries come out:

* :class:`MetricSummary` — across-seed statistics of one scalar metric
  (mean/p50/p90/p99 plus a bootstrap confidence interval on the mean),
  computed from the ordered per-seed values in the parent process, so
  they are byte-identical however the seeds were executed.
* :class:`DigestSummary` — pooled *within-run* distributions (e.g. the
  downtime of every incident across every seed), read out of
  :class:`~repro.observability.telemetry.PercentileDigest` sketches the
  workers streamed back and the parent merged in seed order.

:class:`CampaignResult.to_json` is deterministic (sorted keys, no wall
clocks, no worker counts), which is what lets the CI gate assert that a
serial and a parallel campaign agree byte-for-byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..exec.stats import SweepStats
from ..observability.telemetry import PercentileDigest

# Fixed seed for the bootstrap generator: resampling is part of the
# deterministic reduction, not of the simulated randomness.
BOOTSTRAP_SEED = 0x5EED
BOOTSTRAP_RESAMPLES = 200


def bootstrap_ci(
    values: Sequence[float],
    confidence: float = 0.95,
    resamples: int = BOOTSTRAP_RESAMPLES,
) -> tuple:
    """Percentile-bootstrap CI for the mean of ``values``.

    Deterministic: the resampling generator is freshly seeded per call,
    so the interval is a pure function of the (ordered) values.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    data = np.asarray(values, dtype=float)
    if data.size == 0:
        return (0.0, 0.0)
    if data.size == 1:
        return (float(data[0]), float(data[0]))
    rng = np.random.default_rng(BOOTSTRAP_SEED)
    picks = rng.integers(0, data.size, size=(resamples, data.size))
    means = data[picks].mean(axis=1)
    tail = (1.0 - confidence) / 2.0
    lo, hi = np.percentile(means, [100 * tail, 100 * (1 - tail)])
    return (float(lo), float(hi))


@dataclass(frozen=True)
class MetricSummary:
    """Across-seed distribution of one campaign metric."""

    n: int
    mean: float
    p50: float
    p90: float
    p99: float
    min: float
    max: float
    ci_low: float  # bootstrap CI on the mean
    ci_high: float

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "MetricSummary":
        data = np.asarray(values, dtype=float)
        if data.size == 0:
            raise ValueError("cannot summarize an empty metric")
        p50, p90, p99 = np.percentile(data, [50, 90, 99])
        lo, hi = bootstrap_ci(data)
        return cls(
            n=int(data.size),
            mean=float(data.mean()),
            p50=float(p50),
            p90=float(p90),
            p99=float(p99),
            min=float(data.min()),
            max=float(data.max()),
            ci_low=lo,
            ci_high=hi,
        )

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "mean": self.mean,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
            "min": self.min,
            "max": self.max,
            "ci95": [self.ci_low, self.ci_high],
        }


@dataclass(frozen=True)
class DigestSummary:
    """Read-out of one merged within-run distribution sketch."""

    count: int
    mean: float
    min: float
    max: float
    p50: float
    p90: float
    p99: float

    @classmethod
    def from_digest(cls, digest: PercentileDigest) -> "DigestSummary":
        if digest.count == 0:
            return cls(count=0, mean=0.0, min=0.0, max=0.0, p50=0.0, p90=0.0, p99=0.0)
        return cls(
            count=digest.count,
            mean=digest.mean,
            min=digest.min,
            max=digest.max,
            p50=digest.percentile(0.50),
            p90=digest.percentile(0.90),
            p99=digest.percentile(0.99),
        )

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
        }


@dataclass
class CampaignResult:
    """Everything a many-seed campaign reports.

    ``to_json`` contains only simulation outputs and the campaign's
    defining inputs — never worker counts, cache hits or wall-clock
    times — so re-running the same seeds through any execution path must
    reproduce it byte-for-byte.
    """

    scenario: str
    seeds: List[int]
    weeks: float
    spec: Dict[str, object]  # the campaign spec's defining parameters
    metrics: Dict[str, MetricSummary]
    per_seed: Dict[str, List[float]]  # metric -> value per seed, seed order
    incident_totals: Dict[str, int]  # fault kind / decision action -> count
    incident_distributions: Dict[str, DigestSummary]
    stats: Optional[SweepStats] = field(default=None, compare=False)

    def metric_values(self, name: str) -> List[float]:
        return list(self.per_seed[name])

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seeds": list(self.seeds),
            "weeks": self.weeks,
            "spec": dict(sorted(self.spec.items())),
            "metrics": {k: v.to_dict() for k, v in sorted(self.metrics.items())},
            "per_seed": {k: list(v) for k, v in sorted(self.per_seed.items())},
            "incidents": dict(sorted(self.incident_totals.items())),
            "distributions": {
                k: v.to_dict() for k, v in sorted(self.incident_distributions.items())
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def describe(self) -> str:
        lines = [
            f"{self.scenario} campaign: {len(self.seeds)} seeds x "
            f"{self.weeks:g} week(s)",
            f"{'metric':<22s} {'mean':>10s} {'p50':>10s} {'p90':>10s} "
            f"{'p99':>10s} {'95% CI (mean)':>24s}",
        ]
        for name, summary in sorted(self.metrics.items()):
            ci = f"[{summary.ci_low:.4g}, {summary.ci_high:.4g}]"
            lines.append(
                f"{name:<22s} {summary.mean:>10.4g} {summary.p50:>10.4g} "
                f"{summary.p90:>10.4g} {summary.p99:>10.4g} {ci:>24s}"
            )
        if self.incident_totals:
            lines.append("")
            lines.append(f"{'incident kind':<22s} {'count':>7s} {'mean':>10s} "
                         f"{'p90':>10s}  (downtime s)")
            for kind, count in sorted(self.incident_totals.items()):
                dist = self.incident_distributions.get(f"downtime:{kind}")
                if dist is not None and dist.count:
                    lines.append(
                        f"{kind:<22s} {count:>7d} {dist.mean:>10.1f} {dist.p90:>10.1f}"
                    )
                else:
                    lines.append(f"{kind:<22s} {count:>7d} {'-':>10s} {'-':>10s}")
        return "\n".join(lines)
