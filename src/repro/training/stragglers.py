"""Stragglers and software perturbations (§5.1, §6.3).

Three distinct phenomena from the paper, each with its own knob:

* **Computational stragglers** — ~0.5% of hosts run ~10% slower on
  identical work; which hosts a job draws is a scheduling lottery, making
  per-run MFU inconsistent (Figure 6).  Eviction recovers ~0.7% MFU.
* **Problematic code segments** — irregular garbage collection and slow
  PyTorch ops perturb the forward pass; the *drift* between DP ranks'
  collective launch times grows with step count, so MFU decays over a
  run until the code paths are fixed (Figure 12 / "MFU decreasing").
* **Baseline jitter** — OS noise; always present, small.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..core.features import FeatureSet

DEFAULT_STRAGGLER_FRACTION = 0.005  # ~0.5% of machines (§5.1)
DEFAULT_STRAGGLER_SLOWDOWN = 0.90  # ~10% slower (§6.3)


@dataclass
class StragglerModel:
    """Samples which hosts in a job are slow, and how slow."""

    fraction: float = DEFAULT_STRAGGLER_FRACTION
    slowdown: float = DEFAULT_STRAGGLER_SLOWDOWN
    rng: Optional[np.random.Generator] = None

    def __post_init__(self) -> None:
        if not 0 <= self.fraction <= 1:
            raise ValueError("fraction must be in [0, 1]")
        if not 0 < self.slowdown <= 1:
            raise ValueError("slowdown must be in (0, 1]")
        if self.rng is None:
            self.rng = np.random.default_rng(0)

    def sample_speed_factors(self, n_hosts: int) -> np.ndarray:
        """Per-host speed factor for one scheduling draw."""
        if n_hosts < 1:
            raise ValueError("n_hosts must be >= 1")
        factors = np.ones(n_hosts)
        slow = self.rng.random(n_hosts) < self.fraction
        factors[slow] = self.slowdown
        return factors

    def job_speed_factor(self, n_hosts: int) -> float:
        """Whole-job factor: synchronous training runs at the slowest host."""
        return float(self.sample_speed_factors(n_hosts).min())


def expected_job_slowdown(
    n_hosts: int,
    fraction: float = DEFAULT_STRAGGLER_FRACTION,
    slowdown: float = DEFAULT_STRAGGLER_SLOWDOWN,
) -> float:
    """Expected whole-job speed factor under the straggler lottery.

    Synchronous training runs at the slowest host's speed, so the job
    factor is ``slowdown`` unless the draw contains no straggler at all.
    Megatron-LM rows in Table 2 carry this expectation; MegaScale's
    diagnostics evict slow hosts (§5.1, §6.3), restoring factor 1.0.
    """
    if n_hosts < 1:
        raise ValueError("n_hosts must be >= 1")
    p_clean = (1.0 - fraction) ** n_hosts
    return slowdown + (1.0 - slowdown) * p_clean


@dataclass
class PerturbationModel:
    """Per-iteration software jitter: GC pauses and slow code paths.

    With the problematic code in place, the expected worst-rank extra
    delay per iteration grows slowly with the step index (the launch-time
    stagger the paper traced to GC/fragmentation).  Cleaning the code
    removes the growth and most of the base cost.
    """

    features: FeatureSet
    n_hosts: int
    base_jitter: float = 2.5e-3  # OS noise floor per iteration (worst rank)
    gc_pause: float = 60e-3  # one GC pause when it hits the critical path
    gc_probability_per_host: float = 2e-4  # per host per iteration
    drift_per_step: float = 0.5e-3  # growing launch-time stagger per step
    rng: Optional[np.random.Generator] = None
    _samples: List[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.n_hosts < 1:
            raise ValueError("n_hosts must be >= 1")
        if self.rng is None:
            self.rng = np.random.default_rng(1)

    def iteration_overhead(self, step: int) -> float:
        """Extra seconds the slowest rank adds at iteration ``step``."""
        # OS noise scales weakly with fleet size (max of many small jitters).
        noise = self.base_jitter * (1.0 + 0.15 * np.log1p(self.n_hosts))
        if self.features.clean_codepath:
            self._samples.append(noise)
            return noise
        # Some host hits a GC pause on the critical path?
        p_any = 1.0 - (1.0 - self.gc_probability_per_host) ** self.n_hosts
        gc = self.gc_pause if self.rng.random() < p_any else 0.0
        drift = self.drift_per_step * step
        total = noise + gc + drift
        self._samples.append(total)
        return total
