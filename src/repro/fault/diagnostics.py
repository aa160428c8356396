"""Self-check diagnostic tests (§4.3).

Lightweight-but-comprehensive suite the driver runs on every node after
suspending a job.  Each test takes a realistic amount of wall time; the
whole suite stays within the paper's "< 10 minutes to detect and
diagnose" envelope.

* **Loopback** — full-mesh RNIC -> {memory, GPU} bandwidth on one host:
  catches PCIe misconfiguration and per-link degradation.
* **RNIC-to-RNIC** — pairwise NIC bandwidth/connectivity on one host:
  catches broken NICs and routing configuration.
* **NCCL all-to-all (intra-host)** — GPU communication inside the node:
  catches broken GPUs and NVLink errors.
* **NCCL all-reduce (ToR neighbours)** — once intra-host passes, an
  all-reduce with same-ToR neighbours checks inter-node paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class DiagnosticSuite:
    """The full §4.3 battery: each test's name and wall seconds, in run order."""

    tests: Tuple[Tuple[str, float], ...] = (
        ("loopback", 45.0),
        ("rnic-to-rnic", 35.0),
        ("nccl-all-to-all", 60.0),
        ("nccl-all-reduce-tor", 75.0),
    )

    def sweep_duration(self) -> float:
        """Wall time of a cluster sweep (nodes test themselves in parallel)."""
        return sum(duration for _, duration in self.tests)
