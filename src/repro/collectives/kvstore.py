"""Rendezvous key-value stores (§3.5).

torch.distributed initializes communication groups through a central KV
store.  Two implementations matter for the paper:

* **TCPStore** — single-threaded, blocking read-write.  Under a poll
  storm (thousands of ranks spinning on a barrier key) every poll
  serializes behind every other request: a convoy that roughly triples
  the wall time of every store-backed barrier (the event-driven
  demonstration below measures ~3x, matching the paper's 1047 s -> 361 s
  improvement from swapping the store).
* **Redis-style async store** — non-blocking, pipelined: requests overlap
  and waiting polls cost nothing at the server.

Both an analytic model (used at 10k-GPU scale) and a discrete-event
implementation (used in tests to demonstrate the convoy mechanically) are
provided.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim import Process, Resource, Simulator


@dataclass(frozen=True)
class StoreModel:
    """Analytic throughput model of one store implementation."""

    name: str
    op_time: float  # effective seconds per op under load
    blocking: bool  # True -> barrier polls convoy (quadratic regime)

    def barrier_time(self, n_ranks: int) -> float:
        """Time for one store-based global barrier over ``n_ranks``.

        Every rank issues O(1) ops against the central store, so one
        barrier costs ``n * op_time``.  The store implementation sets
        ``op_time``: the blocking single-threaded TCPStore convoys
        concurrent requests (see :func:`simulated_barrier_time` for the
        mechanism), tripling its effective per-op cost versus an async
        Redis-style store.  The O(n^2) -> O(n) fix of §3.5 is about how
        *many* barriers run (one per group vs a constant few); that lives
        in :mod:`repro.collectives.init`.
        """
        if n_ranks < 1:
            raise ValueError("n_ranks must be >= 1")
        return n_ranks * self.op_time

    def rendezvous_time(self, group_size: int, ops_per_member: int = 4) -> float:
        """Key exchange to form one group (addresses, NCCL unique ids)."""
        if group_size < 1:
            raise ValueError("group_size must be >= 1")
        return group_size * ops_per_member * self.op_time


# Calibrated against the paper's measurement sequence on 2048 GPUs:
# 1047 s (TCPStore) -> 361 s (Redis) -> < 5 s (ordered barriers).
TCP_STORE = StoreModel(name="tcpstore", op_time=203e-6, blocking=True)
REDIS_STORE = StoreModel(name="redis", op_time=70e-6, blocking=False)


class SimulatedKvServer:
    """Event-driven store used to *demonstrate* the convoy in tests.

    A blocking server owns a single service slot; clients queue for it.
    An async server services any number of requests concurrently (the
    event loop is the only serialization).
    """

    def __init__(self, sim: Simulator, op_time: float, blocking: bool) -> None:
        if op_time <= 0:
            raise ValueError("op_time must be positive")
        self.sim = sim
        self.op_time = op_time
        self.blocking = blocking
        self.ops_served = 0
        self._slot = Resource(sim, capacity=1, name="kv-server") if blocking else None

    def request(self):
        """Process generator: one client operation."""
        if self._slot is not None:
            yield self._slot.acquire()
            yield self.sim.timeout(self.op_time)
            self._slot.release()
        else:
            yield self.sim.timeout(self.op_time)
        self.ops_served += 1


def simulated_barrier_time(
    n_ranks: int,
    op_time: float,
    blocking: bool,
    poll_interval: float = 0.0,
    arrival_stagger: float = None,  # type: ignore[assignment]
) -> float:
    """Run an actual store-backed barrier on the event loop; return its wall time.

    Each rank sets its arrival key, then polls until all ranks arrived.
    Ranks reach the barrier staggered (as they do in real jobs — each
    finishes its previous work at a slightly different time); with a
    blocking store, early ranks' polls convoy ahead of late ranks' SETs,
    which is exactly the quadratic blow-up of §3.5.  ``poll_interval == 0``
    means ranks re-poll immediately (the worst-case spin
    torch.distributed exhibits under a slow store).
    """
    if n_ranks < 1:
        raise ValueError("n_ranks must be >= 1")
    if arrival_stagger is None:
        arrival_stagger = op_time
    sim = Simulator()
    server = SimulatedKvServer(sim, op_time, blocking)
    arrived = {"count": 0}
    done_at = {"t": 0.0}

    def rank_proc(rank: int):
        if arrival_stagger:
            yield sim.timeout(rank * arrival_stagger)
        yield server.request()  # SET own arrival
        arrived["count"] += 1
        while arrived["count"] < n_ranks:
            if poll_interval:
                yield sim.timeout(poll_interval)
            yield server.request()  # GET the counter
        done_at["t"] = max(done_at["t"], sim.now)

    for r in range(n_ranks):
        Process(sim, rank_proc(r), name=f"rank{r}")
    sim.run()
    return done_at["t"]
