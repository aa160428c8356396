"""The multi-job cluster scheduler: arbitration, preemption, degradation.

:class:`ClusterScheduler` replays a correlated fault timeline against a
cluster shared by several training jobs.  Per incident it:

1. maps the blast radius onto the tenants it actually hit
   (:class:`~repro.scheduler.placement.PlacementMap`),
2. files one spare claim per injured job and resolves the batch through
   the :class:`~repro.scheduler.spare_pool.SparePool` broker
   (priority-weighted under ``policy="priority"``, submission order under
   the naive ``policy="fifo"`` baseline),
3. walks each loser down the degradation ladder: preempt lower-priority
   capacity when the loser would otherwise stall (or fall below the
   configured DP floor), shrink the data-parallel degree otherwise to
   :func:`~repro.fault.elastic.shrunk_dp` of its surviving whole hosts,
   and only stall — for the bounded provisioning time — when even dp=1
   does not fit, and
4. schedules retry-with-backoff regrow attempts so degraded jobs claim
   freed capacity later instead of blocking on it now.

Every decision (place/claim/grant/deny/preempt/shrink/stall/regrow/
resume) is recorded and optionally emitted on the ``scheduler``
telemetry lane; the run's score is **cluster-wide goodput**:
Σ(effective-training-rate × job weight), integrated over the horizon as
a piecewise-constant timeline.  Everything is a pure function of the
seed: claim batches are ordered, ties broken deterministically, and the
single RNG is consumed in a fixed order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..collectives.init import group_init_time
from ..collectives.kvstore import REDIS_STORE
from ..fault.domains import DomainTopology
from ..fault.elastic import shrunk_dp
from ..fault.faults import FaultEvent, FaultInjector, Manifestation, detection_latency
from ..hardware.cluster import Cluster
from ..parallel.plan import ParallelPlan
from .job import JobSpec, JobState, JobStatus
from .placement import PlacementError, PlacementMap
from .spare_pool import SpareClaim, SpareGrant, SparePool


@dataclass(frozen=True)
class SchedulerConfig:
    """Operational constants of the multi-tenant control loop."""

    heartbeat_interval: float = 10.0
    nccl_hang_timeout: float = 120.0
    silent_fault_detection_time: float = 2 * 3600.0
    diagnose_time: float = 90.0  # parallel diagnostic sweep (§4.3)
    kubernetes_replacement_time: float = 40.0
    spare_provisioning_time: float = 1800.0  # page + rack fresh machines
    backoff_base: float = 300.0  # first regrow retry after a lost claim
    backoff_factor: float = 2.0
    max_regrow_retries: int = 5  # bounded backoff budget
    # Preemption trigger: a losing high-priority job preempts when it
    # would stall outright or shrink below this fraction of healthy DP.
    preempt_dp_floor: float = 0.5
    uplinks_per_pod: int = 8  # ToR uplinks priced by the contention model

    def __post_init__(self) -> None:
        if not 0.0 <= self.preempt_dp_floor <= 1.0:
            raise ValueError("preempt_dp_floor must be in [0, 1]")
        if self.backoff_base <= 0 or self.backoff_factor < 1.0:
            raise ValueError("invalid backoff parameters")


@dataclass(frozen=True)
class SchedulerDecision:
    """One entry of the arbitration history."""

    time: float
    action: str
    job: str
    detail: Tuple[Tuple[str, Any], ...] = ()


@dataclass(frozen=True)
class GoodputSegment:
    """A stretch of the run with constant per-job rates."""

    start: float
    end: float
    goodput: float  # Σ weight * rate over the segment
    rates: Tuple[Tuple[str, float], ...] = ()

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class JobSummary:
    """Per-tenant outcome of one multi-job run."""

    name: str
    priority: int
    weight: float
    healthy_dp: int
    final_dp: int
    final_state: str
    effective_rate: float  # ∫ rate dt / duration, in [0, 1]
    incidents: int
    preemptions: int
    spares_consumed: int
    stall_seconds: float


@dataclass
class MultiJobReport:
    """Everything a multi-tenant chaos run reports."""

    duration: float
    policy: str
    segments: List[GoodputSegment]
    decisions: List[SchedulerDecision]
    per_job: Dict[str, JobSummary]
    spares_initial: int
    spares_consumed_by: Dict[str, int]
    spares_available: int

    @property
    def goodput_seconds(self) -> float:
        return sum(s.goodput * s.duration for s in self.segments)

    @property
    def mean_goodput(self) -> float:
        return self.goodput_seconds / self.duration if self.duration > 0 else 0.0

    def timeline(self) -> List[Tuple[float, float]]:
        """(time, cluster goodput) change points, time-ordered."""
        return [(s.start, s.goodput) for s in self.segments]

    def actions(self, action: str) -> List[SchedulerDecision]:
        return [d for d in self.decisions if d.action == action]

    def describe(self) -> str:
        lines = [
            f"policy={self.policy}  mean goodput {self.mean_goodput:.3f} "
            f"(max {sum(j.weight for j in self.per_job.values()):.1f})",
            f"{'job':<12s} {'prio':>4s} {'weight':>6s} {'dp':>7s} "
            f"{'eff.rate':>8s} {'incid':>5s} {'preempt':>7s} {'spares':>6s} {'state':<9s}",
        ]
        for job in self.per_job.values():
            lines.append(
                f"{job.name:<12s} {job.priority:>4d} {job.weight:>6.1f} "
                f"{job.final_dp:>3d}/{job.healthy_dp:<3d} {job.effective_rate:>8.1%} "
                f"{job.incidents:>5d} {job.preemptions:>7d} "
                f"{job.spares_consumed:>6d} {job.final_state:<9s}"
            )
        lines.append(
            f"spares: {self.spares_initial} initial, "
            f"{sum(self.spares_consumed_by.values())} consumed, "
            f"{self.spares_available} left; {len(self.decisions)} decisions"
        )
        return "\n".join(lines)


class ClusterScheduler:
    """Places and drives concurrent jobs on one shared cluster."""

    def __init__(
        self,
        cluster: Cluster,
        topology: DomainTopology,
        jobs: Sequence[JobSpec],
        policy: str = "priority",
        config: Optional[SchedulerConfig] = None,
        rng: Optional[np.random.Generator] = None,
        hub: Optional[object] = None,
    ) -> None:
        if len(cluster.nodes) != topology.n_nodes:
            raise ValueError("cluster size must match the domain topology")
        names = [job.name for job in jobs]
        if len(set(names)) != len(names):
            raise ValueError("job names must be unique")
        self.cluster = cluster
        self.topology = topology
        self.policy = policy
        self.config = config or SchedulerConfig()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.hub = hub
        self.placement = PlacementMap(topology=topology)
        self.pool = SparePool(cluster=cluster, policy=policy)
        self.decisions: List[SchedulerDecision] = []
        self.segments: List[GoodputSegment] = []
        self.jobs: Dict[str, JobStatus] = {}
        self._rate_seconds: Dict[str, float] = {name: 0.0 for name in names}
        self._seq = 0
        self._queue: List[Tuple[float, int, str, Any]] = []
        self._last_t = 0.0
        # Admission in priority order (ties: submission order) — the
        # high-priority tenant picks its compact block first.
        for _index, spec in sorted(
            enumerate(jobs), key=lambda pair: (-pair[1].priority, pair[0])
        ):
            self._admit(spec)

    # -- bookkeeping helpers -------------------------------------------------

    def _decide(self, time: float, action: str, job: str, **detail: Any) -> None:
        record = SchedulerDecision(
            time=time,
            action=action,
            job=job,
            detail=tuple(sorted(detail.items())),
        )
        self.decisions.append(record)
        if self.hub is not None:
            self.hub.instant("scheduler", action, time, job=job, **detail)
            self.hub.count("scheduler", "decisions", 1, action=action)

    def _push(self, time: float, kind: str, payload: Any) -> None:
        self._seq += 1
        heapq.heappush(self._queue, (time, self._seq, kind, payload))

    def _node_at(self, index: int):
        return self.cluster.nodes[index]

    def _refresh_contention(self) -> None:
        for status in self.jobs.values():
            status.contention = self.placement.contention_factor(
                status.name, uplinks=self.config.uplinks_per_pod
            )

    def _mark(self, t: float) -> None:
        """Close the piecewise-constant goodput segment ending at ``t``."""
        if t <= self._last_t:
            return
        rates = tuple(
            (name, status.rate(self._last_t)) for name, status in self.jobs.items()
        )
        goodput = sum(self.jobs[name].spec.weight * rate for name, rate in rates)
        self.segments.append(
            GoodputSegment(start=self._last_t, end=t, goodput=goodput, rates=rates)
        )
        for name, rate in rates:
            self._rate_seconds[name] += rate * (t - self._last_t)
        if self.hub is not None:
            self.hub.sample("scheduler", "goodput", self._last_t, goodput)
        self._last_t = t

    # -- admission -----------------------------------------------------------

    def _admit(self, spec: JobSpec) -> None:
        status = JobStatus(spec=spec, plan=spec.plan)
        self.jobs[spec.name] = status
        try:
            nodes = self.placement.place(spec.name, spec.n_nodes)
        except PlacementError:
            status.state = JobState.PENDING
            self._decide(0.0, "deny", spec.name, reason="no-capacity",
                         needed=spec.n_nodes)
            self._push(self.config.backoff_base, "retry", spec.name)
            return
        status.state = JobState.RUNNING
        self._decide(
            0.0, "place", spec.name,
            nodes=len(nodes), first=nodes[0], last=nodes[-1],
            pods=len(self.placement.pods_of(spec.name)),
        )
        self._refresh_contention()

    # -- per-incident latencies ----------------------------------------------

    def _init_time(self, plan: ParallelPlan) -> float:
        return group_init_time(plan, REDIS_STORE, ordered=True).total

    def _set_down(self, status: JobStatus, until: float) -> None:
        if until > status.down_until:
            status.down_until = until
            self._push(until, "wake", status.name)

    # -- the event loop --------------------------------------------------------

    def run(self, injector: FaultInjector, duration: float) -> MultiJobReport:
        """Replay ``duration`` seconds of multi-tenant fault timeline."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        for event in injector.sample(duration):
            self._push(event.time, "fault", event)
        while self._queue:
            t, _seq, kind, payload = heapq.heappop(self._queue)
            if t >= duration:
                break
            self._mark(t)
            if kind == "fault":
                self._on_fault(t, payload)
            elif kind == "wake":
                self._on_wake(t, payload)
            elif kind == "slow-end":
                self._on_slow_end(t, payload)
            elif kind == "retry":
                self._on_retry(t, payload)
            elif kind == "provisioned":
                self._on_provisioned(t, payload)
            elif kind == "repair":
                self._on_repair(t, payload)
        self._mark(duration)
        return self._report(duration)

    # -- fault handling --------------------------------------------------------

    def _on_fault(self, t: float, event: FaultEvent) -> None:
        hit_by_job = self.placement.jobs_hit(event.affected_nodes)
        detect = detection_latency(event, self.rng, self.config)
        if event.kind.needs_replacement:
            self._on_replacement_fault(t, event, hit_by_job, detect)
        elif event.kind.manifestation is Manifestation.HANG:
            self._on_hang_fault(t, event, hit_by_job, detect)
        else:
            self._on_silent_fault(t, event, hit_by_job, detect)

    def _on_replacement_fault(
        self,
        t: float,
        event: FaultEvent,
        hit_by_job: Dict[str, List[int]],
        detect: float,
    ) -> None:
        # Hosts die immediately, tenanted or not.
        for index in event.affected_nodes:
            if index in self.placement.dead:
                continue
            self.placement.kill(index)
            self._node_at(index).healthy = False
            if index not in self.placement.owner:
                # Broken free hosts get repaired on the provisioning
                # timescale — capacity returns, it is just never free now.
                self._push(
                    t + self.config.spare_provisioning_time, "repair", index
                )
        claimants = [
            job for job in hit_by_job
            if self.jobs[job].state in (JobState.RUNNING, JobState.DEGRADED)
        ]
        if not claimants:
            return
        claims = [
            SpareClaim(
                job=job,
                needed=len(hit_by_job[job]),
                priority=self.jobs[job].spec.priority,
                weight=self.jobs[job].spec.weight,
                seq=seq,
            )
            for seq, job in enumerate(claimants)
        ]
        grants = self.pool.arbitrate(claims)
        for grant in grants:
            self._decide(
                t, "claim", grant.claim.job,
                needed=grant.claim.needed, domain=event.domain or f"node{event.node_index}",
                kind=event.kind.name,
            )
        for grant in grants:
            self._apply_grant(t, event, grant, hit_by_job[grant.claim.job], detect)
        self._refresh_contention()

    def _apply_grant(
        self,
        t: float,
        event: FaultEvent,
        grant: SpareGrant,
        hit: List[int],
        detect: float,
    ) -> None:
        cfg = self.config
        status = self.jobs[grant.claim.job]
        status.incidents += 1
        replaced = hit[: grant.granted]
        for index in replaced:
            self.cluster.evict(self._node_at(index).node_id)
            self.placement.revive(index)
        self.pool.record(status.name, grant.granted)
        if grant.granted:
            self._decide(
                t, "grant", status.name,
                granted=grant.granted, shortfall=grant.shortfall,
            )
        if not grant.denied:
            # Fully replaced: restart on the same plan.
            down = detect + cfg.diagnose_time + cfg.kubernetes_replacement_time \
                + self._init_time(status.plan)
            self._set_down(status, t + down)
            return
        self._decide(
            t, "deny", status.name,
            shortfall=grant.shortfall, available=self.pool.available,
        )
        self._handle_shortfall(t, status, hit[grant.granted :], detect)

    # -- the degradation ladder ------------------------------------------------

    def _best_dp(self, status: JobStatus, n_nodes: int) -> int:
        """Largest DP degree ``n_nodes`` whole hosts can sustain (0 = none)."""
        gpn = status.spec.gpus_per_node
        return shrunk_dp(status.spec.plan, n_nodes * gpn, gpn)

    def _handle_shortfall(
        self, t: float, status: JobStatus, dead: List[int], detect: float
    ) -> None:
        """A losing claimant walks preempt -> shrink -> bounded stall."""
        cfg = self.config
        alive = self.placement.nodes_of(status.name)
        if self.policy == "fifo":
            # Naive baseline: losers wait for fresh machines, full stop.
            self._stall(t, status, detect)
            return
        best_dp = self._best_dp(status, len(alive))
        floor = cfg.preempt_dp_floor * status.healthy_dp
        if best_dp < max(1, floor):
            reclaimed = self._preempt_capacity(t, status, len(dead))
            if reclaimed:
                # Transferred capacity replaces the dead hosts: abandon
                # them and fold the reclaimed indices into the job.
                self._abandon_dead(t, status.name, dead)
                dead = []
                alive = self.placement.nodes_of(status.name)
                best_dp = self._best_dp(status, len(alive))
        if best_dp < 1:
            # Graceful shedding did not cover dp=1: displace the weakest
            # lower-priority tenant entirely rather than stall a
            # high-priority job.
            needed = status.spec.min_nodes - len(alive)
            if needed > 0 and self._displace_victim(t, status, needed):
                self._abandon_dead(t, status.name, dead)
                dead = []
                alive = self.placement.nodes_of(status.name)
                best_dp = self._best_dp(status, len(alive))
        if best_dp >= 1:
            self._abandon_dead(t, status.name, dead)
            self._shrink_to(t, status, best_dp, detect)
        else:
            self._stall(t, status, detect)

    def _abandon_dead(self, t: float, job: str, dead: List[int]) -> None:
        """A shrinking job walks away from its dead hosts; the cluster
        repairs them in the background on the provisioning timescale."""
        if not dead:
            return
        self.placement.drop_dead(job, dead)
        for index in dead:
            self._push(t + self.config.spare_provisioning_time, "repair", index)

    def _shrink_to(self, t: float, status: JobStatus, dp: int, detect: float) -> None:
        cfg = self.config
        old_dp = status.plan.dp
        new_plan = status.spec.plan.with_options(dp=dp)
        status.plan = new_plan
        restored = dp >= status.healthy_dp
        status.state = JobState.RUNNING if restored else JobState.DEGRADED
        down = detect + cfg.diagnose_time + self._init_time(new_plan)
        self._set_down(status, t + down)
        if restored:
            self._decide(t, "resume", status.name, dp=dp, at=t + down)
            status.retries = 0
            status.backoff = 0.0
            return
        self._decide(
            t, "shrink", status.name,
            dp=dp, from_dp=old_dp, healthy_dp=status.healthy_dp,
        )
        if self.hub is not None:
            self.hub.span(
                "scheduler", "degraded", 0, t, t + down,
                stream=status.name, dp=dp, healthy_dp=status.healthy_dp,
            )
        # Retry-with-backoff: come back for freed capacity later.
        status.retries = 0
        status.backoff = cfg.backoff_base
        self._push(t + down + status.backoff, "retry", status.name)

    def _stall(self, t: float, status: JobStatus, detect: float) -> None:
        """Bounded wait for fresh machines — the only full stop, and it
        always ends (provisioning revives every dead host in place)."""
        cfg = self.config
        status.state = JobState.STALLED
        resume_at = t + detect + cfg.diagnose_time + cfg.spare_provisioning_time
        status.stall_seconds += resume_at - t
        self._decide(
            t, "stall", status.name,
            until=resume_at, provisioning=cfg.spare_provisioning_time,
        )
        self._push(resume_at, "provisioned", status.name)

    def _victims_for(self, claimant: JobStatus) -> List[JobStatus]:
        """Preemptible lower-priority tenants, weakest first."""
        return sorted(
            (
                s for s in self.jobs.values()
                if s.name != claimant.name
                and s.spec.preemptible
                and s.spec.priority < claimant.spec.priority
                and s.state in (JobState.RUNNING, JobState.DEGRADED)
            ),
            key=lambda s: (s.spec.priority, s.spec.weight, s.name),
        )

    def _preempt_capacity(self, t: float, claimant: JobStatus, short: int) -> int:
        """Reclaim up to ``short`` hosts from lower-priority tenants by
        *graceful shedding*: each victim shrinks toward its dp=1 floor
        and hands the freed hosts over, but keeps training.  Returns the
        number of hosts transferred."""
        reclaimed = 0
        for victim in self._victims_for(claimant):
            if reclaimed >= short:
                break
            alive = self.placement.nodes_of(victim.name)
            keep_min = victim.spec.min_nodes
            if self._best_dp(victim, keep_min) < 1:
                continue  # victim cannot stay viable at its floor
            sheddable = max(0, len(alive) - keep_min)
            take = min(short - reclaimed, sheddable)
            if take <= 0:
                continue
            taken = alive[-take:]  # highest indices: the block's far end
            self.placement.release(victim.name, taken)
            self.placement.assign(claimant.name, taken)
            reclaimed += take
            remaining = len(alive) - take
            victim.preemptions += 1
            self._decide(
                t, "preempt", victim.name,
                by=claimant.name, nodes=take, remaining=remaining,
            )
            self._shrink_to(t, victim, self._best_dp(victim, remaining), detect=0.0)
        return reclaimed

    def _displace_victim(self, t: float, claimant: JobStatus, needed: int) -> int:
        """Fully preempt the weakest victim that frees >= ``needed``
        hosts: the claimant takes what it needs, the rest return to the
        free pool, the victim re-places later with backoff."""
        cfg = self.config
        for victim in self._victims_for(claimant):
            alive = self.placement.nodes_of(victim.name)
            if len(alive) < needed:
                continue
            self.placement.release(victim.name, alive)
            self.placement.assign(claimant.name, alive[:needed])
            victim_dead = [
                i for i in sorted(self.placement.dead)
                if self.placement.owner.get(i) == victim.name
            ]
            self._abandon_dead(t, victim.name, victim_dead)
            victim.state = JobState.PREEMPTED
            victim.preemptions += 1
            victim.retries = 0
            victim.backoff = cfg.backoff_base
            self._push(t + victim.backoff, "retry", victim.name)
            self._decide(
                t, "preempt", victim.name,
                by=claimant.name, nodes=needed, remaining=0, displaced=True,
            )
            return needed
        return 0

    # -- non-replacement faults -------------------------------------------------

    def _on_hang_fault(
        self,
        t: float,
        event: FaultEvent,
        hit_by_job: Dict[str, List[int]],
        detect: float,
    ) -> None:
        cfg = self.config
        for job in hit_by_job:
            status = self.jobs[job]
            if status.state not in (JobState.RUNNING, JobState.DEGRADED):
                continue
            status.incidents += 1
            down = detect + cfg.diagnose_time + event.kind.repair_time \
                + self._init_time(status.plan)
            self._set_down(status, t + down)
            self._decide(
                t, "degrade", job,
                kind=event.kind.name, down=down,
                domain=event.domain or f"node{event.node_index}",
            )

    def _on_silent_fault(
        self,
        t: float,
        event: FaultEvent,
        hit_by_job: Dict[str, List[int]],
        detect: float,
    ) -> None:
        until = t + detect + event.kind.repair_time
        for job in hit_by_job:
            status = self.jobs[job]
            if status.state not in (JobState.RUNNING, JobState.DEGRADED):
                continue
            status.incidents += 1
            status.slow_factor = event.kind.degraded_throughput
            if until > status.slow_until:
                status.slow_until = until
                self._push(until, "slow-end", job)
            self._decide(
                t, "degrade", job,
                kind=event.kind.name, factor=event.kind.degraded_throughput,
                until=until,
            )

    # -- timed follow-ups --------------------------------------------------------

    def _on_wake(self, t: float, job: str) -> None:
        status = self.jobs.get(job)
        if status is None or t + 1e-9 < status.down_until:
            return  # superseded by a later incident
        if status.state in (JobState.RUNNING, JobState.DEGRADED):
            self._decide(t, "resume", job, dp=status.plan.dp)

    def _on_slow_end(self, t: float, job: str) -> None:
        status = self.jobs[job]
        if t + 1e-9 < status.slow_until:
            return
        status.slow_factor = 1.0
        self._decide(t, "restore", job)

    def _on_provisioned(self, t: float, job: str) -> None:
        """Fresh machines arrived for a stalled job: revive in place."""
        status = self.jobs[job]
        if status.state is not JobState.STALLED:
            return
        for index in sorted(self.placement.dead):
            if self.placement.owner.get(index) == job:
                self.placement.revive(index)
                self._node_at(index).healthy = True
        status.state = JobState.RUNNING if status.plan.dp >= status.healthy_dp \
            else JobState.DEGRADED
        self._set_down(status, t + self._init_time(status.plan))
        self._decide(t, "provisioned", job, dp=status.plan.dp)
        self._refresh_contention()

    def _on_repair(self, t: float, index: int) -> None:
        """A broken unowned host comes back repaired and free; wake the
        degraded/displaced tenants so they can regrow onto it."""
        if index not in self.placement.dead or index in self.placement.owner:
            return
        self.placement.revive(index)
        self._node_at(index).healthy = True
        self._decide(t, "provisioned", "cluster", node=index)
        for name, status in self.jobs.items():
            if status.state in (
                JobState.DEGRADED, JobState.PREEMPTED, JobState.PENDING
            ):
                self._push(t, "retry", name)

    def _on_retry(self, t: float, job: str) -> None:
        """Backoff expiry: try to regrow (DEGRADED) or re-place (PREEMPTED
        / PENDING).  Never blocks — failure reschedules within the budget,
        then the job stays at its degraded-but-training state."""
        cfg = self.config
        status = self.jobs[job]
        if status.state is JobState.DEGRADED:
            grew = self._try_regrow(t, status)
        elif status.state in (JobState.PREEMPTED, JobState.PENDING):
            grew = self._try_replace(t, status)
        else:
            return  # healed in the meantime
        if grew:
            status.retries = 0
            status.backoff = 0.0
            if status.state is JobState.DEGRADED:
                # Partial regrow: keep trying for the rest.
                status.backoff = cfg.backoff_base
                self._push(t + status.backoff, "retry", job)
            return
        status.retries += 1
        if status.retries <= cfg.max_regrow_retries:
            status.backoff = max(cfg.backoff_base, status.backoff) * cfg.backoff_factor
            self._push(t + status.backoff, "retry", job)
            self._decide(
                t, "deny", job,
                reason="retry-backoff", attempt=status.retries,
                next_in=status.backoff,
            )
        elif status.state in (JobState.PREEMPTED, JobState.PENDING):
            # Keep polling for capacity at the capped interval: a
            # displaced job must eventually return, never deadlock.
            self._push(t + status.backoff, "retry", job)
        # A DEGRADED job past its budget simply stays degraded: it is
        # still training, so nothing blocks on the empty pool.

    def _claimable(self) -> Tuple[List[int], List[int]]:
        """(free healthy indices, dead unowned indices coverable by spares)."""
        free = self.placement.free_indices()
        dead_unowned = [
            i for i in sorted(self.placement.dead)
            if i not in self.placement.owner
        ]
        return free, dead_unowned[: self.pool.available]

    def _take_capacity(self, job: str, count: int) -> List[int]:
        """Claim ``count`` hosts: free ones first, then spare-backed
        revivals of dead unowned slots.  Caller checked availability."""
        free, revivable = self._claimable()
        taken: List[int] = []
        for index in free[:count]:
            taken.append(index)
        consumed = 0
        for index in revivable[: count - len(taken)]:
            self.cluster.evict(self._node_at(index).node_id)
            self.placement.revive(index)
            taken.append(index)
            consumed += 1
        self.pool.record(job, consumed)
        self.placement.assign(job, taken)
        return taken

    def _try_regrow(self, t: float, status: JobStatus) -> bool:
        alive = self.placement.nodes_of(status.name)
        free, revivable = self._claimable()
        budget = len(alive) + len(free) + len(revivable)
        dp = self._best_dp(status, budget)
        if dp <= status.plan.dp:
            return False
        new_plan = status.spec.plan.with_options(dp=dp)
        needed = new_plan.world_size // status.spec.gpus_per_node - len(alive)
        self._take_capacity(status.name, needed)
        status.plan = new_plan
        restored = dp >= status.healthy_dp
        status.state = JobState.RUNNING if restored else JobState.DEGRADED
        self._set_down(status, t + self._init_time(new_plan))
        self._decide(
            t, "regrow", status.name,
            dp=dp, healthy_dp=status.healthy_dp, added=needed,
        )
        if restored:
            self._decide(t, "resume", status.name, dp=dp)
        self._refresh_contention()
        return True

    def _try_replace(self, t: float, status: JobStatus) -> bool:
        free, revivable = self._claimable()
        budget = len(free) + len(revivable)
        dp = self._best_dp(status, budget)
        if dp < 1:
            return False
        new_plan = status.spec.plan.with_options(dp=dp)
        needed = new_plan.world_size // status.spec.gpus_per_node
        self._take_capacity(status.name, needed)
        status.plan = new_plan
        status.state = JobState.RUNNING if dp >= status.healthy_dp \
            else JobState.DEGRADED
        self._set_down(status, t + self._init_time(new_plan))
        self._decide(
            t, "place", status.name,
            dp=dp, nodes=needed, healthy_dp=status.healthy_dp,
        )
        self._refresh_contention()
        return True

    # -- reporting ----------------------------------------------------------------

    def _report(self, duration: float) -> MultiJobReport:
        per_job: Dict[str, JobSummary] = {}
        for name, status in self.jobs.items():
            per_job[name] = JobSummary(
                name=name,
                priority=status.spec.priority,
                weight=status.spec.weight,
                healthy_dp=status.healthy_dp,
                final_dp=status.plan.dp if status.state not in
                (JobState.PENDING, JobState.PREEMPTED) else 0,
                final_state=status.state.value,
                effective_rate=self._rate_seconds[name] / duration,
                incidents=status.incidents,
                preemptions=status.preemptions,
                spares_consumed=self.pool.consumed_by.get(name, 0),
                stall_seconds=status.stall_seconds,
            )
        return MultiJobReport(
            duration=duration,
            policy=self.policy,
            segments=list(self.segments),
            decisions=list(self.decisions),
            per_job=per_job,
            spares_initial=self.pool.initial,
            spares_consumed_by=dict(self.pool.consumed_by),
            spares_available=self.pool.available,
        )
