"""The scan-based placement queries: the oracle for ``PlacementMap``'s counts.

:class:`repro.scheduler.placement.PlacementMap` keeps the alive owned
hosts per (job, pod) and per pod, and the dead unowned hosts, as counts
its mutators maintain.  These functions answer the same queries by
scanning ``owner`` and ``dead`` on every call, the way the map did
before it kept counts.  The property in
``tests/scheduler/test_placement.py`` holds the counts to them after
every step of random mutation sequences, and
``tests/montecarlo/test_campaign.py`` installs them (:func:`install`) to
replay whole scheduler campaigns byte for byte.
"""

from __future__ import annotations

from typing import List

from repro.network.ecmp import conflict_factor
from repro.scheduler.placement import PlacementMap


def pods_of(pm: PlacementMap, job: str) -> List[int]:
    return sorted({pm.topology.pod_of(i) for i in pm.nodes_of(job)})


def pod_load(pm: PlacementMap, pod: int) -> int:
    """Alive assigned nodes (any tenant) in the pod — active rails."""
    return sum(
        1
        for i in pm.topology.nodes_in_pod(pod)
        if i in pm.owner and i not in pm.dead
    )


def pod_load_of(pm: PlacementMap, pod: int, job: str) -> int:
    return sum(
        1
        for i in pm.topology.nodes_in_pod(pod)
        if pm.owner.get(i) == job and i not in pm.dead
    )


def contention_factor(pm: PlacementMap, job: str, uplinks: int = 8) -> float:
    factor = 1.0
    for pod in pods_of(pm, job):
        own = pod_load_of(pm, pod, job)
        total = pod_load(pm, pod)
        if total <= own:
            continue
        shared = conflict_factor(total, uplinks, 50)
        alone = conflict_factor(own, uplinks, 50)
        factor = min(factor, shared / alone)
    return factor


def n_alive(pm: PlacementMap, job: str) -> int:
    return len(pm.nodes_of(job))


def n_claimable(pm: PlacementMap, spares: int) -> int:
    """Free indices plus the dead unowned ones ``spares`` can revive,
    counted from the lists the scheduler claims from."""
    free = pm.free_indices()
    dead_unowned = [i for i in sorted(pm.dead) if i not in pm.owner]
    return len(free) + len(dead_unowned[:spares])


def install(monkeypatch) -> None:
    """Serve every count-backed ``PlacementMap`` query by scan."""
    for query in (pods_of, contention_factor, n_alive, n_claimable):
        monkeypatch.setattr(PlacementMap, query.__name__, query)
