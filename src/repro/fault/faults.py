"""Fault catalog and injection (§4, §6.3).

Fault kinds cover the spectrum the paper reports: explicit software
crashes (CUDA error, segfault), hardware failures (GPU ECC, NIC down),
silent degradations (slow host, bandwidth-degraded NIC), and the nasty
probabilistic NCCL hangs of §5.2.  Each kind declares how it manifests,
which is what determines how the robust-training framework can detect it:

* ``explicit`` — the training process dies or logs an error keyword;
  heartbeats report it immediately.
* ``hang`` — the process blocks inside NCCL; heartbeats continue but
  RDMA traffic ceases.
* ``silent`` — training proceeds, slower; only the CUDA-event heat-map
  analysis (§5.1) finds the culprit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np


class Manifestation(enum.Enum):
    EXPLICIT = "explicit"
    HANG = "hang"
    SILENT = "silent"


@dataclass(frozen=True)
class FaultKind:
    """A class of failure with its occurrence rate and manifestation."""

    name: str
    manifestation: Manifestation
    weekly_rate_per_node: float  # expected occurrences per node-week
    auto_detectable: bool  # covered by heartbeats + diagnostic tests
    # Throughput the job sustains while the fault is active but undetected
    # (synchronous training is gated by its slowest participant, so one
    # silently-slow host drags the whole job to this fraction).
    degraded_throughput: float = 1.0
    # Whether recovery must swap the affected hosts for spares (hardware
    # death) or the hosts come back on their own (network faults that end
    # with a switch failover / reroute).
    needs_replacement: bool = True
    # Extra fixed repair latency beyond diagnosis + replacement (e.g. a
    # switch failover) charged during recovery.
    repair_time: float = 0.0


# Rates sum to roughly 100+ failures over several weeks at ~1250 nodes
# for the >90%-auto-detected mix the paper reports (§6.2, §6.3).
CUDA_ERROR = FaultKind("cuda-error", Manifestation.EXPLICIT, 6.0e-3, True)
SEGFAULT = FaultKind("segfault", Manifestation.EXPLICIT, 3.0e-3, True)
GPU_ECC = FaultKind("gpu-ecc", Manifestation.EXPLICIT, 4.2e-3, True)
NIC_DOWN = FaultKind("nic-down", Manifestation.EXPLICIT, 2.1e-3, True)
NCCL_HANG = FaultKind("nccl-hang", Manifestation.HANG, 1.8e-3, True)
NIC_DEGRADED = FaultKind(
    "nic-degraded", Manifestation.SILENT, 0.75e-3, False,
    degraded_throughput=0.85,
)
SLOW_HOST = FaultKind(
    "slow-host", Manifestation.SILENT, 0.75e-3, False,
    degraded_throughput=0.9,
)

FAULT_CATALOG: List[FaultKind] = [
    CUDA_ERROR,
    SEGFAULT,
    GPU_ECC,
    NIC_DOWN,
    NCCL_HANG,
    NIC_DEGRADED,
    SLOW_HOST,
]


@dataclass(frozen=True)
class FaultEvent:
    """One sampled failure occurrence.

    Single-node faults leave ``node_indices`` empty and name their victim
    via ``node_index``.  Correlated (domain) faults list every affected
    node in ``node_indices`` and label their blast radius in ``domain``.
    """

    time: float  # seconds into the run
    kind: FaultKind
    node_index: int  # index into the active node list
    node_indices: Tuple[int, ...] = ()
    domain: Optional[str] = None  # e.g. "rack3", "tor1", "pod0-leaf"

    @property
    def affected_nodes(self) -> Tuple[int, ...]:
        return self.node_indices if self.node_indices else (self.node_index,)

    @property
    def blast_radius(self) -> int:
        return len(self.affected_nodes)


def auto_detectable_fraction(events: List[FaultEvent]) -> float:
    """Fraction the robust framework handles without humans (paper: >90%)."""
    if not events:
        return 1.0
    return sum(1 for e in events if e.kind.auto_detectable) / len(events)


def detection_latency(event: FaultEvent, rng: np.random.Generator, config) -> float:
    """Seconds from ``event`` until the framework notices it (one RNG draw).

    ``config`` supplies ``heartbeat_interval``, ``nccl_hang_timeout`` and
    ``silent_fault_detection_time`` (the production-run and scheduler
    configs both do).  The heartbeat mechanism this abstracts is replayed
    event by event in ``tests/oracles/live_driver.py``; a property there
    holds that the mechanism flags every auto-detectable fault no later
    than the top of its window here, and no silent one before its floor.
    """
    manifestation = event.kind.manifestation
    if manifestation is Manifestation.EXPLICIT:
        # Caught by the next heartbeat's status/log keywords.
        return float(rng.uniform(0, config.heartbeat_interval)) + 2.0
    if manifestation is Manifestation.HANG:
        # RDMA traffic ceased; needs a few silent windows to be sure.
        return config.nccl_hang_timeout + float(rng.uniform(0, config.heartbeat_interval))
    # Silent: surfaces at the next heat-map review (§5.1).
    return float(rng.uniform(0.2, 1.0)) * config.silent_fault_detection_time


def event_order(event: FaultEvent) -> Tuple[float, str, int]:
    """The canonical sort key for merged fault timelines."""
    return (event.time, event.kind.name, event.node_index)


class FaultInjector:
    """Samples fault arrivals for a cluster over a time horizon.

    Sampling is **count-first**: the event count of each stream is drawn
    as one Poisson variate, then the arrival times, kinds and victims are
    drawn as flat phases (all times, then all kinds, then all nodes) —
    the standard conditional construction of a Poisson process (counts
    are Poisson, arrivals given the count are i.i.d. uniforms).  Each
    phase is one numpy draw.  Because NumPy's ``Generator`` fills an
    array with exactly the draws a scalar loop would make, this consumes
    the same generator stream as a per-event Python loop and returns the
    same events; that loop is the test oracle in
    ``tests/oracles/fault_sampler.py``.
    """

    def __init__(
        self,
        n_nodes: int,
        rng: Optional[np.random.Generator] = None,
        catalog: Optional[List[FaultKind]] = None,
        rate_multiplier: float = 1.0,
    ) -> None:
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if rate_multiplier <= 0:
            raise ValueError("rate_multiplier must be positive")
        self.n_nodes = n_nodes
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.catalog = catalog if catalog is not None else FAULT_CATALOG
        self.rate_multiplier = rate_multiplier

    def cluster_rate_per_second(self) -> float:
        """Aggregate fault rate across all nodes and kinds."""
        weekly = sum(k.weekly_rate_per_node for k in self.catalog) * self.n_nodes
        return weekly * self.rate_multiplier / (7 * 86400)

    def _kind_cdf(self) -> np.ndarray:
        weights = np.array([k.weekly_rate_per_node for k in self.catalog], dtype=float)
        return np.cumsum(weights / weights.sum())

    def _node_events(self, horizon: float) -> List[FaultEvent]:
        """The single-node stream: one numpy draw per phase."""
        rate = self.cluster_rate_per_second()
        if rate <= 0:
            return []
        n = int(self.rng.poisson(rate * horizon))
        cdf = self._kind_cdf()
        times = horizon * self.rng.random(n)
        kinds = np.minimum(
            np.searchsorted(cdf, self.rng.random(n), side="right"), len(self.catalog) - 1
        )
        nodes = self.rng.integers(0, self.n_nodes, size=n)
        return [
            FaultEvent(
                time=float(times[i]),
                kind=self.catalog[int(kinds[i])],
                node_index=int(nodes[i]),
            )
            for i in range(n)
        ]

    def _extra_events(self, horizon: float) -> List[FaultEvent]:
        """Hook for subclasses that sample additional streams (domains)."""
        return []

    def sample(self, horizon: float) -> List[FaultEvent]:
        """Poisson arrivals over ``[0, horizon)`` seconds, time-ordered."""
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        events = self._node_events(horizon)
        events.extend(self._extra_events(horizon))
        events.sort(key=event_order)
        return events

    def expected_faults(self, horizon: float) -> float:
        return self.cluster_rate_per_second() * horizon
