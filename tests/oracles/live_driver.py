"""The event-level §4 robust-training stack: the oracle for detection latency.

MegaScale §4.1–4.3 (Figure 5): a daemon on every node heartbeats the
driver with its training process's status, a log line and its RDMA
traffic rate; the driver flags a node whose beat reports an error or
whose traffic ceased after a healthy baseline; on recovery it runs the
self-check battery on every node and evicts the failures to spares,
shedding them once the spares run out.  Each node is a :class:`Host`
record holding only what a fault changes and the battery reads; the
spares are a list of fresh ones.  ``ProductionRun`` and
``ClusterScheduler`` price all of this as one draw of
:func:`repro.fault.detection_latency`; the property in
``tests/fault/test_live_oracle.py`` holds that draw to this mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.fault import FaultKind, Manifestation
from repro.sim import Process, Simulator

DELIVERY_LATENCY = 0.05  # seconds from a daemon's beat to the driver
HEALTHY_RDMA_RATE = 12e9  # bytes/s of a healthy node's training traffic
TRAFFIC_FLOOR = 1e6  # bytes/s below which traffic has ceased


@dataclass
class Host:
    """One node as faults leave it and the §4.3 battery reads it."""

    host_id: int
    healthy: bool = True  # the training process runs (a crash or hang stops it)
    gpus_healthy: bool = True  # every GPU answers (an ECC error kills one)
    speed_factor: float = 1.0  # the slowest GPU's speed, fraction of spec
    nic_factor: float = 1.0  # the slowest RNIC's bandwidth, fraction of spec; 0 is down


def _unhealthy(host: Host) -> None:
    host.healthy = False


def _degrade_nic(factor: float):
    return lambda host: setattr(host, "nic_factor", factor)


# What each fault does to its node, keyed by ``FaultKind.name``.
EFFECTS = {
    "cuda-error": _unhealthy,
    "segfault": _unhealthy,
    "gpu-ecc": lambda host: setattr(host, "gpus_healthy", False),
    "nic-down": _degrade_nic(0.0),
    "nccl-hang": _unhealthy,
    "nic-degraded": _degrade_nic(0.4),
    "slow-host": lambda host: setattr(host, "speed_factor", 0.9),
    "rack-psu": _unhealthy,
    "tor-switch": _unhealthy,
    "leaf-link-degraded": _degrade_nic(0.4),
}


def self_check(host: Host) -> Optional[str]:
    """The §4.3 battery on one node: the first test it fails, or ``None``.

    Loopback fails on a dead NIC or one below 85% of spec (so
    RNIC-to-RNIC, which catches dead NICs, never fails first); the
    intra-host all-to-all on a dead GPU or a hung or >5%-slow host; the
    ToR all-reduce on a NIC below 90% of spec.
    """
    if host.nic_factor < 0.85:
        return "loopback"
    if not host.healthy or not host.gpus_healthy or host.speed_factor < 0.95:
        return "nccl-all-to-all"
    if host.nic_factor < 0.9:
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

    def __init__(self, driver: "LiveDriver", host: Host) -> None:
        self.host = host
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
            driver.sim.schedule(DELIVERY_LATENCY, partial(driver.receive, self.host.host_id, beat))


class LiveDriver:
    """The §4.1 driver over hosts ``0 .. n_nodes - 1``, on its own simulator.

    ``spares`` holds ``n_spares`` fresh hosts, ids from ``n_nodes`` up.
    """

    def __init__(
        self, n_nodes: int, n_spares: int = 0, heartbeat_interval: float = 10.0
    ) -> None:
        self.sim = Simulator()
        self.heartbeat_interval = heartbeat_interval
        self.spares = [Host(host_id) for host_id in range(n_nodes, n_nodes + n_spares)]
        self.daemons: Dict[int, Daemon] = {}
        self.histories: Dict[int, List[Beat]] = {}
        self.flags: Dict[int, Tuple[float, str]] = {}  # host id -> first (time, verdict)
        self.shed: List[int] = []  # evicted with no spare left
        for host_id in range(n_nodes):
            self._launch(Host(host_id))

    def _launch(self, host: Host) -> None:
        self.daemons[host.host_id] = Daemon(self, host)
        self.histories[host.host_id] = []

    def inject(self, host_id: int, kind: FaultKind) -> None:
        daemon = self.daemons[host_id]
        EFFECTS[kind.name](daemon.host)
        daemon.fault = kind

    def receive(self, host_id: int, beat: Beat) -> None:
        history = self.histories.get(host_id)
        if history is None:
            return  # sent before its host was evicted
        history.append(beat)
        found = verdict(history)
        if found is not None:
            self.flags.setdefault(host_id, (self.sim.now, found))

    def check(self) -> Dict[int, str]:
        """The current verdict of every flagged active host."""
        found = {host_id: verdict(history) for host_id, history in self.histories.items()}
        return {host_id: v for host_id, v in found.items() if v is not None}

    def recover(self) -> List[int]:
        """Run the battery on every host; evict each failure. Returns their ids."""
        evicted = []
        for host_id, daemon in list(self.daemons.items()):
            if self_check(daemon.host) is None:
                continue
            daemon.stopped = True
            del self.daemons[host_id], self.histories[host_id]
            evicted.append(host_id)
            if self.spares:
                self._launch(self.spares.pop(0))
            else:
                self.shed.append(host_id)
        return evicted


def run_scenario(
    kinds: Sequence[FaultKind], n_nodes: int = 4, n_spares: int = 4
) -> Tuple[LiveDriver, List[int], Dict[int, str], List[int]]:
    """One war story: ``kinds`` hit the first nodes at 45 s, checked at 225 s.

    Returns the driver, the victims, the verdicts at 225 s and the nodes
    a recovery then evicted (none when nothing was flagged).
    """
    driver = LiveDriver(n_nodes, n_spares)
    driver.sim.run(until=45.0)
    victims = list(driver.daemons)[: len(kinds)]
    for host_id, kind in zip(victims, kinds):
        driver.inject(host_id, kind)
    driver.sim.run(until=225.0)
    detected = driver.check()
    return driver, victims, detected, driver.recover() if detected else []
