"""The event-level §4 robust-training stack: the oracle for detection latency.

MegaScale §4.1–4.3 (Figure 5): a daemon on every node heartbeats the
driver with its training process's status, a log line and its RDMA
traffic rate; the driver flags a node whose beat reports an error or
whose traffic ceased after a healthy baseline; on recovery it runs the
self-check battery on every node and evicts the failures to spares,
shedding them once the spares run out.  ``ProductionRun`` and
``ClusterScheduler`` price all of this as one draw of
:func:`repro.fault.detection_latency`; the property in
``tests/fault/test_live_oracle.py`` holds that draw to this mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.fault import FaultKind, Manifestation
from repro.hardware.cluster import Cluster, NoSpareAvailable
from repro.hardware.node import Node
from repro.sim import Process, Simulator

DELIVERY_LATENCY = 0.05  # seconds from a daemon's beat to the driver
HEALTHY_RDMA_RATE = 12e9  # bytes/s of a healthy node's training traffic
TRAFFIC_FLOOR = 1e6  # bytes/s below which traffic has ceased


def _unhealthy(node: Node) -> None:
    node.healthy = False


def _degrade_nic(factor: float):
    return lambda node: node.nics[0].degrade(factor)


# What each fault does to its node's hardware, keyed by ``FaultKind.name``.
EFFECTS = {
    "cuda-error": _unhealthy,
    "segfault": _unhealthy,
    "gpu-ecc": lambda node: setattr(node.gpus[0], "healthy", False),
    "nic-down": _degrade_nic(0.0),
    "nccl-hang": _unhealthy,
    "nic-degraded": _degrade_nic(0.4),
    "slow-host": lambda node: node.set_speed_factor(0.9),
    "rack-psu": _unhealthy,
    "tor-switch": _unhealthy,
    "leaf-link-degraded": _degrade_nic(0.4),
}


def self_check(node: Node) -> Optional[str]:
    """The §4.3 battery on one node: the first test it fails, or ``None``.

    Loopback fails on a dead NIC or one below 85% of spec (so
    RNIC-to-RNIC, which catches dead NICs, never fails first); the
    intra-host all-to-all on a dead GPU or a hung or >5%-slow host; the
    ToR all-reduce on a NIC below 90% of spec.
    """
    if any(not nic.healthy or nic.bandwidth_factor < 0.85 for nic in node.nics):
        return "loopback"
    if not node.healthy or node.speed_factor < 0.95 or not all(g.healthy for g in node.gpus):
        return "nccl-all-to-all"
    if any(nic.bandwidth_factor < 0.9 for nic in node.nics):
        return "nccl-all-reduce-tor"
    return None


@dataclass(frozen=True)
class Beat:
    time: float
    status: str  # "running" or "error"
    log: str
    rdma_rate: float  # bytes/s over the last interval


def verdict(history: Sequence[Beat]) -> Optional[str]:
    """The two §4.2 rules a fault can trip, over one node's beats."""
    if not history:
        return None  # no beat yet: a fresh node is not missing one
    last = history[-1]
    if last.status == "error":
        return "explicit-error"
    if last.rdma_rate < TRAFFIC_FLOOR and any(b.rdma_rate >= TRAFFIC_FLOOR for b in history):
        return "traffic-ceased"
    return None


class Daemon:
    """One node's robust-training daemon: a beat every heartbeat interval."""

    def __init__(self, driver: "LiveDriver", node: Node) -> None:
        self.node = node
        self.fault: Optional[FaultKind] = None
        self.stopped = False
        Process(driver.sim, self._run(driver))

    def beat(self, now: float) -> Beat:
        fault = self.fault
        if fault is not None and fault.manifestation is Manifestation.EXPLICIT:
            return Beat(now, "error", f"{fault.name}: training process exited", 0.0)
        if fault is not None and fault.manifestation is Manifestation.HANG:
            return Beat(now, "running", "", 0.0)  # blocked in NCCL, still alive
        # Healthy, or silently slower: the case heartbeats cannot catch.
        slowdown = fault.degraded_throughput if fault is not None else 1.0
        return Beat(now, "running", "", HEALTHY_RDMA_RATE * slowdown)

    def _run(self, driver: "LiveDriver"):
        while True:
            yield driver.sim.timeout(driver.heartbeat_interval)
            if self.stopped:
                return
            beat = self.beat(driver.sim.now)
            driver.sim.schedule(DELIVERY_LATENCY, partial(driver.receive, self.node.node_id, beat))


class LiveDriver:
    """The §4.1 driver over a cluster's active nodes, on its own simulator."""

    def __init__(self, cluster: Cluster, heartbeat_interval: float = 10.0) -> None:
        self.sim = Simulator()
        self.cluster = cluster
        self.heartbeat_interval = heartbeat_interval
        self.daemons: Dict[int, Daemon] = {}
        self.histories: Dict[int, List[Beat]] = {}
        self.flags: Dict[int, Tuple[float, str]] = {}  # node id -> first (time, verdict)
        self.shed: List[int] = []  # evicted with no spare left
        for node in cluster.nodes:
            self._launch(node)

    def _launch(self, node: Node) -> None:
        self.daemons[node.node_id] = Daemon(self, node)
        self.histories[node.node_id] = []

    def inject(self, node_id: int, kind: FaultKind) -> None:
        daemon = self.daemons[node_id]
        EFFECTS[kind.name](daemon.node)
        daemon.fault = kind

    def receive(self, node_id: int, beat: Beat) -> None:
        history = self.histories.get(node_id)
        if history is None:
            return  # sent before its node was evicted
        history.append(beat)
        found = verdict(history)
        if found is not None:
            self.flags.setdefault(node_id, (self.sim.now, found))

    def check(self) -> Dict[int, str]:
        """The current verdict of every flagged active node."""
        found = {node_id: verdict(history) for node_id, history in self.histories.items()}
        return {node_id: v for node_id, v in found.items() if v is not None}

    def recover(self) -> List[int]:
        """Run the battery on every node; evict each failure. Returns their ids."""
        evicted = []
        for node_id, daemon in list(self.daemons.items()):
            if self_check(daemon.node) is None:
                continue
            daemon.stopped = True
            del self.daemons[node_id], self.histories[node_id]
            evicted.append(node_id)
            try:
                self._launch(self.cluster.evict(node_id))
            except NoSpareAvailable:
                self.shed.append(node_id)
        return evicted


def run_scenario(
    kinds: Sequence[FaultKind], n_nodes: int = 4, n_spares: int = 4
) -> Tuple[LiveDriver, List[int], Dict[int, str], List[int]]:
    """One war story: ``kinds`` hit the first nodes at 45 s, checked at 225 s.

    Returns the driver, the victims, the verdicts at 225 s and the nodes
    a recovery then evicted (none when nothing was flagged).
    """
    driver = LiveDriver(Cluster.build(n_nodes, n_spares=n_spares))
    driver.sim.run(until=45.0)
    victims = list(driver.daemons)[: len(kinds)]
    for node_id, kind in zip(victims, kinds):
        driver.inject(node_id, kind)
    driver.sim.run(until=225.0)
    detected = driver.check()
    return driver, victims, detected, driver.recover() if detected else []
