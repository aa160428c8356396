"""Topology-aware placement of concurrent jobs onto one shared cluster.

Placement works at the level of *node indices* in the shared
:class:`~repro.fault.domains.DomainTopology` (the same index space the
correlated fault injector samples blast radii from).  The placer packs a
job onto the candidate window spanning the fewest pods, then the fewest
racks, then the lowest index — minimizing the cross-pod ECMP traffic the
fabric would price against it.  Multiple tenants can still end up
sharing a rack or a pod (the cluster is a shared service, and half-full
racks get packed); that sharing is exactly what makes a rack-PSU fault a
*multi-job* robustness event and what the cross-job contention factor
below prices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set

from ..fault.domains import DomainTopology
from ..network.ecmp import conflict_factor


class PlacementError(RuntimeError):
    """Not enough free healthy capacity to place the job."""


@dataclass
class PlacementMap:
    """Who owns which node index, and which indices are dead.

    ``owner`` and ``dead`` are the record; ``assign``, ``release``,
    ``kill``, ``revive`` and ``drop_dead`` are their only writers, and
    each keeps three counts in step with it: the alive owned hosts per
    (job, pod), the alive owned hosts per pod, and the dead unowned
    hosts.  ``pods_of``, ``contention_factor`` and the capacity counts
    ``n_alive`` and ``n_claimable`` read those counts, so an event that
    reprices contention or asks whether a job can grow costs O(pods)
    rather than a scan of the cluster.  Counts are derived from any
    ``owner`` or ``dead`` passed in; every index must lie in the
    topology.
    """

    topology: DomainTopology
    owner: Dict[int, str] = field(default_factory=dict)
    dead: Set[int] = field(default_factory=set)

    def __post_init__(self) -> None:
        self._alive: Dict[str, Dict[int, int]] = {}  # job -> pod -> alive owned
        self._load: Dict[int, int] = {}  # pod -> alive owned, any tenant
        self._dead_unowned = 0
        for index in self.dead:
            self.topology.pod_of(index)  # in range, as kill() checks
            if index not in self.owner:
                self._dead_unowned += 1
        for index, job in self.owner.items():
            pod = self.topology.pod_of(index)  # in range, as assign() checks
            if index not in self.dead:
                self._count(job, pod, 1)

    def _count(self, job: str, pod: int, delta: int) -> None:
        """Move one alive owned host of ``job`` in ``pod`` by ``delta``."""
        pods = self._alive.setdefault(job, {})
        pods[pod] = pods.get(pod, 0) + delta
        if not pods[pod]:
            del pods[pod]
        self._load[pod] = self._load.get(pod, 0) + delta

    @property
    def n_nodes(self) -> int:
        return self.topology.n_nodes

    def n_alive(self, job: str) -> int:
        """The job's alive indices: ``len(nodes_of(job))``."""
        return sum(self._alive.get(job, {}).values())

    def n_claimable(self, spares: int) -> int:
        """Hosts a job could claim now: the free indices plus the dead
        unowned ones that ``spares`` standby hosts can revive."""
        free = self.n_nodes - len(self.owner) - self._dead_unowned
        return free + min(self._dead_unowned, spares)

    def free_indices(self) -> List[int]:
        """Healthy, unassigned indices in ascending order."""
        return [
            i for i in range(self.n_nodes) if i not in self.owner and i not in self.dead
        ]

    def nodes_of(self, job: str) -> List[int]:
        """The job's *alive* indices, ascending."""
        return sorted(
            i for i, name in self.owner.items() if name == job and i not in self.dead
        )

    def place(self, job: str, n_nodes: int) -> List[int]:
        """Assign ``n_nodes`` free indices, minimizing the domain footprint.

        Every window of ``n_nodes`` consecutive *free* indices is scored
        by (pods spanned, racks spanned, first index); the best window
        wins.  Deterministic, and topology-aware without being
        exclusive: leftover half-racks are packed, so tenants can share
        failure domains — the multi-tenant reality the scheduler must
        survive.
        """
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        free = self.free_indices()
        if len(free) < n_nodes:
            raise PlacementError(
                f"job {job!r} needs {n_nodes} nodes; only {len(free)} free"
            )
        best: List[int] = []
        best_score = None
        for offset in range(len(free) - n_nodes + 1):
            window = free[offset : offset + n_nodes]
            pods = len({self.topology.pod_of(i) for i in window})
            racks = len({self.topology.rack_of(i) for i in window})
            score = (pods, racks, window[0])
            if best_score is None or score < best_score:
                best_score = score
                best = window
        self.assign(job, best)
        return best

    def assign(self, job: str, indices: Sequence[int]) -> None:
        for index in indices:
            pod = self.topology.pod_of(index)
            if index in self.owner:
                raise PlacementError(
                    f"node {index} already owned by {self.owner[index]!r}"
                )
            if index in self.dead:
                raise PlacementError(f"node {index} is dead")
            self.owner[index] = job
            self._count(job, pod, 1)

    def release(self, job: str, indices: Sequence[int]) -> None:
        """Give healthy indices back to the free pool (shrink/preempt)."""
        for index in indices:
            if self.owner.get(index) != job:
                raise PlacementError(f"node {index} is not owned by {job!r}")
            del self.owner[index]
            if index in self.dead:
                self._dead_unowned += 1
            else:
                self._count(job, self.topology.pod_of(index), -1)

    def kill(self, index: int) -> None:
        """Mark a host dead in place; it keeps its index (and its owner's
        slot) until a replacement revives it."""
        pod = self.topology.pod_of(index)
        if index in self.dead:
            return
        self.dead.add(index)
        job = self.owner.get(index)
        if job is None:
            self._dead_unowned += 1
        else:
            self._count(job, pod, -1)

    def revive(self, index: int) -> None:
        """A replacement host took over this index."""
        if index not in self.dead:
            return
        self.dead.discard(index)
        job = self.owner.get(index)
        if job is None:
            self._dead_unowned -= 1
        else:
            self._count(job, self.topology.pod_of(index), 1)

    def drop_dead(self, job: str, indices: Sequence[int]) -> None:
        """Unassign dead indices a shrinking job abandons (no replacement
        coming).  They stay dead until provisioning revives them."""
        for index in indices:
            if self.owner.get(index) != job:
                raise PlacementError(f"node {index} is not owned by {job!r}")
            if index not in self.dead:
                raise PlacementError(f"node {index} is not dead")
            del self.owner[index]
            self._dead_unowned += 1

    def jobs_hit(self, indices: Sequence[int]) -> Dict[str, List[int]]:
        """Map each job to the *alive* owned indices a blast radius hit,
        jobs in name order, indices ascending — the claim batch order."""
        hit: Dict[str, List[int]] = {}
        for index in indices:
            job = self.owner.get(index)
            if job is None or index in self.dead:
                continue
            hit.setdefault(job, []).append(index)
        return {job: sorted(hit[job]) for job in sorted(hit)}

    def pods_of(self, job: str) -> List[int]:
        """The pods holding the job's alive indices, ascending."""
        return sorted(self._alive.get(job, ()))

    def contention_factor(self, job: str, uplinks: int = 8) -> float:
        """Cross-job ECMP sharing factor in (0, 1] for ``job``.

        Per pod the job occupies: the ratio of its per-flow throughput
        with *every* tenant's rails hashing onto the ToR uplinks to its
        throughput were it alone in the pod.  Synchronous training is
        gated by its slowest participant, so the job's factor is the
        minimum over its pods, taken in ascending pod order.  1.0 when
        the job shares no pod.
        """
        factor = 1.0
        pods = self._alive.get(job, {})
        for pod in sorted(pods):
            own = pods[pod]
            total = self._load[pod]
            if total <= own:
                continue
            shared = conflict_factor(total, uplinks, 50)
            alone = conflict_factor(own, uplinks, 50)
            factor = min(factor, shared / alone)
        return factor
