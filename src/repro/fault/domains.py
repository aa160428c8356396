"""Correlated fault domains: rack-, ToR-, and leaf-link-level blast radii.

The paper's war stories (§6.3) and the RAPID-LLM line of work agree that
the failures which actually threaten the >90% effective-training-time
goal are not independent single-node events: a PSU trips and a whole
rack powers off; a ToR switch dies and every server it fronts hangs in
NCCL; a leaf (ToR→agg) link degrades and an entire pod's collectives
silently slow down.  This module models those domains on top of the
same CLOS layout :mod:`repro.network.topology` builds:

* **rack** — ``nodes_per_rack`` servers share power and cooling; a PSU
  fault kills all of them at once and each needs a spare.
* **tor** — a ToR switch serves every server in its pod on one rail;
  its failure manifests as a pod-wide NCCL hang, cleared by a switch
  failover (no host replacement).
* **leaf-link** — a ToR→aggregation uplink degrades; the pod's traffic
  still flows (ECMP around it) but at reduced bandwidth, a silent
  throughput degradation only the heat-map analysis catches.

:class:`CorrelatedFaultInjector` samples these domain events alongside
the independent single-node catalog of :class:`~repro.fault.faults.FaultInjector`
from one seeded generator, so a seed fully determines the merged,
time-ordered event list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..network.topology import ClosFabric
from .faults import FaultEvent, FaultInjector, FaultKind, Manifestation


# Domain-scoped fault kinds.  ``weekly_rate_per_node`` is zero: these are
# priced per *domain* by the injector, never by the node catalog.
RACK_POWER_FAULT = FaultKind(
    "rack-psu",
    Manifestation.EXPLICIT,
    0.0,
    True,
    needs_replacement=True,
)
TOR_SWITCH_FAULT = FaultKind(
    "tor-switch",
    Manifestation.HANG,
    0.0,
    True,
    needs_replacement=False,
    repair_time=300.0,  # switch failover + route reconvergence
)
LEAF_LINK_FAULT = FaultKind(
    "leaf-link-degraded",
    Manifestation.SILENT,
    0.0,
    False,
    degraded_throughput=0.7,
    needs_replacement=False,
    repair_time=120.0,  # drain + replace the optic / reroute
)


@dataclass(frozen=True)
class FaultDomain:
    """A correlated blast radius with its per-domain occurrence rate."""

    name: str
    kind: FaultKind
    weekly_rate_per_domain: float
    scope: str  # "rack" or "pod"

    def __post_init__(self) -> None:
        if self.weekly_rate_per_domain < 0:
            raise ValueError("domain rate must be non-negative")
        if self.scope not in ("rack", "pod"):
            raise ValueError(f"unknown domain scope {self.scope!r}")


# Per-domain weekly rates: racks fail rarely but constantly across a big
# fleet; switch/link events are per-pod.  At 1536 nodes (192 racks, 24
# pods) this yields a handful of correlated events per multi-week run —
# rare enough to keep Figure 11 recognisable, common enough to exercise
# the degraded paths.
DEFAULT_DOMAINS: List[FaultDomain] = [
    FaultDomain("rack-psu", RACK_POWER_FAULT, 2.0e-3, scope="rack"),
    FaultDomain("tor-switch", TOR_SWITCH_FAULT, 1.0e-3, scope="pod"),
    FaultDomain("leaf-link", LEAF_LINK_FAULT, 4.0e-3, scope="pod"),
]


@dataclass(frozen=True)
class DomainTopology:
    """Maps node indices onto racks and pods (mirrors the CLOS layout)."""

    n_nodes: int
    nodes_per_rack: int = 8
    nodes_per_pod: int = 64

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("topology needs at least one node")
        if self.nodes_per_rack < 1 or self.nodes_per_pod < 1:
            raise ValueError("rack and pod sizes must be positive")
        if self.nodes_per_pod % self.nodes_per_rack != 0:
            raise ValueError("racks must tile pods exactly")

    @classmethod
    def from_fabric(cls, fabric: ClosFabric, nodes_per_rack: int = 8) -> "DomainTopology":
        """Derive the domain map from a built CLOS fabric."""
        return cls(
            n_nodes=fabric.n_nodes,
            nodes_per_rack=min(nodes_per_rack, fabric.nodes_per_pod),
            nodes_per_pod=fabric.nodes_per_pod,
        )

    @property
    def n_racks(self) -> int:
        return -(-self.n_nodes // self.nodes_per_rack)

    @property
    def n_pods(self) -> int:
        return -(-self.n_nodes // self.nodes_per_pod)

    def rack_of(self, node: int) -> int:
        self._check(node)
        return node // self.nodes_per_rack

    def pod_of(self, node: int) -> int:
        self._check(node)
        return node // self.nodes_per_pod

    def nodes_in_rack(self, rack: int) -> List[int]:
        if not 0 <= rack < self.n_racks:
            raise ValueError(f"rack {rack} outside 0..{self.n_racks - 1}")
        start = rack * self.nodes_per_rack
        return list(range(start, min(start + self.nodes_per_rack, self.n_nodes)))

    def nodes_in_pod(self, pod: int) -> List[int]:
        if not 0 <= pod < self.n_pods:
            raise ValueError(f"pod {pod} outside 0..{self.n_pods - 1}")
        start = pod * self.nodes_per_pod
        return list(range(start, min(start + self.nodes_per_pod, self.n_nodes)))

    def group_for(self, scope: str, index: int) -> List[int]:
        if scope == "rack":
            return self.nodes_in_rack(index)
        if scope == "pod":
            return self.nodes_in_pod(index)
        raise ValueError(f"unknown scope {scope!r}")

    def n_domains(self, scope: str) -> int:
        if scope == "rack":
            return self.n_racks
        if scope == "pod":
            return self.n_pods
        raise ValueError(f"unknown scope {scope!r}")

    def _check(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise ValueError(f"node {node} outside topology of {self.n_nodes}")


class CorrelatedFaultInjector(FaultInjector):
    """Samples independent node faults *and* correlated domain faults.

    All streams draw from the one seeded generator in a fixed order
    (node catalog first, then each domain in declaration order), so the
    merged event list is a deterministic function of the seed.  Each
    stream is sampled count-first (see :class:`FaultInjector`): every
    domain's times and indices are one numpy draw per phase.
    """

    def __init__(
        self,
        n_nodes: int,
        topology: Optional[DomainTopology] = None,
        domains: Optional[List[FaultDomain]] = None,
        rng: Optional[np.random.Generator] = None,
        catalog: Optional[List[FaultKind]] = None,
        rate_multiplier: float = 1.0,
    ) -> None:
        super().__init__(
            n_nodes, rng=rng, catalog=catalog, rate_multiplier=rate_multiplier
        )
        self.topology = topology or DomainTopology(n_nodes=n_nodes)
        if self.topology.n_nodes != n_nodes:
            raise ValueError("topology size must match n_nodes")
        self.domains = domains if domains is not None else list(DEFAULT_DOMAINS)

    def domain_rate_per_second(self, domain: FaultDomain) -> float:
        weekly = domain.weekly_rate_per_domain * self.topology.n_domains(domain.scope)
        return weekly * self.rate_multiplier / (7 * 86400)

    def cluster_rate_per_second(self) -> float:
        base = super().cluster_rate_per_second()
        return base + sum(self.domain_rate_per_second(d) for d in self.domains)

    def _domain_event(self, domain: FaultDomain, t: float, index: int) -> FaultEvent:
        group = self.topology.group_for(domain.scope, index)
        return FaultEvent(
            time=t,
            kind=domain.kind,
            node_index=group[0],
            node_indices=tuple(group),
            domain=f"{domain.scope}{index}",
        )

    def _extra_events(self, horizon: float) -> List[FaultEvent]:
        events: List[FaultEvent] = []
        for domain in self.domains:
            rate = self.domain_rate_per_second(domain)
            if rate <= 0:
                continue
            n_domains = self.topology.n_domains(domain.scope)
            n = int(self.rng.poisson(rate * horizon))
            times = horizon * self.rng.random(n)
            indices = self.rng.integers(0, n_domains, size=n)
            events.extend(
                self._domain_event(domain, float(times[i]), int(indices[i]))
                for i in range(n)
            )
        return events
