"""Production runs: the §4 fault-handling pipeline at 10k-GPU scale.

:class:`ProductionRun` is the multi-week timeline behind Figure 11:
fault arrivals drive suspend/diagnose/evict/resume cycles whose
latencies come from :func:`~repro.fault.faults.detection_latency` (the
heartbeat and RDMA-traffic windows of §4.2), the diagnostic suite's
duration, ordered group init and two-stage checkpoint recovery, plus a
loss curve over the tokens actually trained.

Degraded-mode recovery: when the spare pool is exhausted the run sheds
data-parallel replicas instead of stalling (it re-plans to
:func:`repro.fault.elastic.shrunk_dp` of the surviving GPUs);
correlated domain faults (:mod:`repro.fault.domains`) take out whole
racks or pods in one event; and checkpoint loads go through the
integrity + retry layer of :mod:`repro.fault.checkpoint`, falling back
to the N−1 checkpoint when shards stay corrupt.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..network.flapping import FlapEvent
from ..observability.monitors import MillisecondMonitor, SecondLevelMonitor
from ..parallel.plan import ParallelPlan
from .checkpoint import (
    CheckpointLoadOutcome,
    CheckpointPlanner,
    RetryPolicy,
    ShardIntegrityModel,
    load_with_retry,
    lost_progress,
)
from .diagnostics import DiagnosticSuite
from .elastic import ElasticDecision, restart_price, shrunk_dp
from .faults import FaultEvent, FaultInjector, Manifestation, detection_latency
from .recovery import DegradedInterval, RecoveryLog, RecoveryRecord, effective_training_rate


class LiveMonitors:
    """§4.2's two monitoring tiers attached to a production timeline.

    The :class:`~repro.observability.MillisecondMonitor` watches the
    effective transfer rate (full line rate while healthy, the degraded
    fraction while a silent fault limps along, zero while traffic has
    ceased during recovery); the
    :class:`~repro.observability.SecondLevelMonitor` watches the flap
    history synthesized from NIC/link incidents.  Every verdict is
    emitted as an instant on the ``monitor`` lane at the simulated time
    it fired, so ``HealthFinding``s appear live on the unified trace.
    """

    def __init__(self, hub, link_rate: float = 25e9) -> None:
        self.hub = hub
        self.link_rate = link_rate
        self.millisecond = MillisecondMonitor(link_rate=link_rate)
        self.second = SecondLevelMonitor()
        self.flaps: List[FlapEvent] = []
        self.findings = []  # (time, HealthFinding) in emission order

    def _emit(self, finding, at: float) -> None:
        self.findings.append((at, finding))
        self.hub.instant(
            "monitor",
            f"{finding.subsystem}:{finding.severity}",
            at,
            severity=finding.severity,
            source=finding.subsystem,
            message=finding.message,
        )
        self.hub.count("monitor", "findings", 1, severity=finding.severity)

    def observe_incident(self, event: FaultEvent, detected_at: float, resumed_at: float) -> None:
        """Feed both tiers from one fault incident and emit their verdicts."""
        ms = self.millisecond
        ms.record(event.time, self.link_rate)  # healthy right up to the fault
        if event.kind.manifestation is Manifestation.SILENT:
            # Limping along: the slowest participant gates the job.
            ms.record(detected_at, event.kind.degraded_throughput * self.link_rate)
        else:
            ms.record(detected_at, 0.0)  # traffic ceased (crash or hang)
        self._emit(ms.verdict(), detected_at)
        if "nic" in event.kind.name or event.domain is not None:
            # Network-shaped incidents read as link flaps to the coarse tier.
            self.flaps.append(FlapEvent(down_at=event.time, up_at=resumed_at))
            self._emit(self.second.check_flapping(self.flaps, now=detected_at), detected_at)
        ms.record(resumed_at, self.link_rate)  # recovered to line rate


# -- multi-week production timeline (Figure 11) --------------------------------


def emit_incident_telemetry(
    hub,
    event: FaultEvent,
    detected_at: float,
    resumed_at: float,
    auto: bool = True,
    lost_iterations: int = 0,
    spares_consumed: int = 0,
    fell_back: bool = False,
    monitors=None,
) -> None:
    """One fault's full telemetry footprint on the ``fault`` lane.

    Emits the fault instant (with blast radius and failure domain — the
    attrs the diagnosis correlator keys on), the detect and recover
    spans, and the incident counters.  Shared by :class:`ProductionRun`
    and the injected-cause diagnosis scenarios so both produce the same
    schema.
    """
    hub.instant(
        "fault",
        event.kind.name,
        event.time,
        rank=event.node_index,
        manifestation=event.kind.manifestation.value,
        blast_radius=event.blast_radius,
        domain=event.domain or f"node{event.node_index}",
    )
    hub.span(
        "fault", "detect", event.node_index, event.time, detected_at,
        stream="detect", kind=event.kind.name,
    )
    hub.span(
        "fault", "recover", event.node_index, detected_at, resumed_at,
        stream="recover", kind=event.kind.name, auto=auto,
        lost_iterations=lost_iterations,
        spares_consumed=spares_consumed,
        fell_back=fell_back,
    )
    hub.count("fault", "incidents", 1, kind=event.kind.name)
    hub.observe("fault", "downtime", resumed_at - detected_at)
    hub.observe("fault", "detection_time", detected_at - event.time)
    if monitors is not None:
        monitors.observe_incident(event, detected_at, resumed_at)


def default_loss_curve(tokens: float) -> float:
    """Chinchilla-style surrogate for the Figure 11 loss trajectory.

    The paper's loss values are proprietary (the figure is normalized);
    any smooth power-law decay reproduces its qualitative content.
    """
    return 1.7 + 14.0 * (tokens / 1e9 + 30.0) ** -0.42


@dataclass(frozen=True)
class ProductionRunConfig:
    """Operational parameters of a long training run."""

    iteration_time: float = 6.34  # Table 2, MegaScale @ 12,288 GPUs
    tokens_per_iteration: float = 6144 * 2048
    checkpoint_interval_iterations: int = 150
    heartbeat_interval: float = 10.0
    nccl_hang_timeout: float = 120.0  # traffic-ceased detection window
    manual_intervention_time: float = 2400.0  # the ~10% needing humans
    silent_fault_detection_time: float = 6 * 3600.0  # heat-map review cadence
    kubernetes_replacement_time: float = 40.0
    checkpoint_load_optimized: bool = True
    # Wall time to provision fresh machines once the spare pool is empty
    # and no elastic shrink is possible (paging + racking a node).
    spare_provisioning_time: float = 1800.0


@dataclass(frozen=True)
class IncidentOutcome:
    """Everything one fault costs, resolved by the recovery pipeline."""

    downtime: float  # after detection
    diagnose: float
    auto: bool
    lost_iterations: int
    extra_lost_iterations: int  # from an N-1 checkpoint fallback
    fell_back: bool
    spares_consumed: int
    provisioned: int  # fresh hosts a provisioning stall brought in
    replan: Optional[ElasticDecision]
    load: Optional[CheckpointLoadOutcome]


@dataclass
class ProductionRunResult:
    """Everything Figure 11 and §6.3 report about one run."""

    wall_time: float
    completed_iterations: int
    restarts: int
    log: RecoveryLog
    loss_points: List[Tuple[float, float, int]] = field(default_factory=list)
    # (wall time, loss, restart index at that moment)
    # Healthy-equivalent iterations: each iteration weighted by the token
    # fraction its (possibly shrunken) plan trained.
    effective_iterations: float = 0.0
    final_dp: Optional[int] = None

    @property
    def tokens_trained(self) -> float:
        return self.loss_points[-1][0] if self.loss_points else 0.0

    def effective_rate(self, iteration_time: float) -> float:
        weighted = self.effective_iterations if self.effective_iterations > 0 else float(
            self.completed_iterations
        )
        return effective_training_rate(weighted, iteration_time, self.wall_time)


class ProductionRun:
    """Simulates a fault-ridden multi-week run at 10k+ GPU scale.

    With ``spares`` set the spare pool holds that many hosts (``None``
    is an unlimited pool): replacements consume spares, and once they
    run out the run re-plans to the largest DP degree the surviving GPUs
    sustain (:func:`shrunk_dp`), stalling for fresh machines only when
    not even one replica fits.  The machines a stall brings in stay in
    the run, so a later fault can shrink onto them.  With an
    ``integrity`` model checkpoint loads can hit corrupt shards and retry
    per ``retry_policy``, falling back to the N−1 checkpoint at the price
    of one extra checkpoint interval of lost iterations.  The ``planner``
    prices restores on its model, node and HDFS for whatever plan the run
    resumes on.
    """

    def __init__(
        self,
        plan: ParallelPlan,
        injector: FaultInjector,
        config: Optional[ProductionRunConfig] = None,
        planner: Optional[CheckpointPlanner] = None,
        loss_curve: Callable[[float], float] = default_loss_curve,
        rng: Optional[np.random.Generator] = None,
        spares: Optional[int] = None,
        integrity: Optional[ShardIntegrityModel] = None,
        retry_policy: Optional[RetryPolicy] = None,
        gpus_per_node: int = 8,
        hub: Optional[object] = None,
        monitor_link_rate: float = 25e9,
    ) -> None:
        self.plan = plan
        self.injector = injector
        self.config = config or ProductionRunConfig()
        self.planner = planner
        self.loss_curve = loss_curve
        self.diagnostics = DiagnosticSuite()
        self._diagnose = self.diagnostics.sweep_duration()  # charged per incident
        self.rng = rng if rng is not None else np.random.default_rng(42)
        if spares is not None and spares < 0:
            raise ValueError("spares must be non-negative")
        self.spares = spares
        self.integrity = integrity
        self.retry_policy = retry_policy or RetryPolicy()
        self.gpus_per_node = gpus_per_node
        self.hub = hub
        self.monitors = LiveMonitors(hub, link_rate=monitor_link_rate) if hub else None

    # -- per-incident latencies ------------------------------------------------

    def _checkpoint_load(
        self, recovery: Optional[float], bandwidth_factor: float
    ) -> Tuple[float, int, Optional[CheckpointLoadOutcome]]:
        """(load time, extra lost iterations, detail) for one restore."""
        cfg = self.config
        if recovery is None:
            return 120.0, 0, None
        if self.integrity is None:
            return recovery, 0, None
        outcome = load_with_retry(
            recovery,
            self.rng,
            self.integrity,
            policy=self.retry_policy,
            bandwidth_factor=bandwidth_factor,
        )
        extra = cfg.checkpoint_interval_iterations if outcome.fell_back else 0
        return outcome.total_time, extra, outcome

    def resolve_incident(
        self,
        event: FaultEvent,
        plan: Optional[ParallelPlan] = None,
        spares_left: Optional[int] = None,
        available_gpus: Optional[int] = None,
    ) -> IncidentOutcome:
        """Price one fault end-to-end: diagnose, replace/shrink, re-init, load.

        The diagnostic sweep is priced once per run and threaded through
        both the downtime and the ``diagnosed_at`` timestamp.  The restart
        (resumed plan, group init, clean checkpoint load) is priced once
        per distinct plan by :func:`~repro.fault.elastic.restart_price`;
        per incident only the lost iterations and the load's retry
        outcome are drawn.
        """
        cfg = self.config
        plan = plan if plan is not None else self.plan
        if available_gpus is None:
            available_gpus = plan.world_size
        diagnose = self._diagnose
        auto = event.kind.auto_detectable
        manual = 0.0 if auto else cfg.manual_intervention_time

        needed = event.blast_radius if event.kind.needs_replacement else 0
        consumed = needed if spares_left is None else min(needed, spares_left)
        short = needed - consumed
        provisioned = 0
        resume_dp = plan.dp
        replace = 0.0
        if needed:
            remaining = available_gpus - short * self.gpus_per_node
            dp = shrunk_dp(plan, remaining)
            if dp == 0:
                # Not even one replica fits: stall for fresh machines.
                replace = cfg.spare_provisioning_time
                provisioned = short
            else:
                # At dp == plan.dp spares (or idle survivors of an earlier
                # shrink) absorb the loss; below it the run sheds replicas.
                resume_dp = dp
                if consumed:
                    replace = cfg.kubernetes_replacement_time

        restart = restart_price(
            plan, resume_dp, self.planner, cfg.checkpoint_load_optimized
        )
        decision: Optional[ElasticDecision] = None
        if resume_dp < plan.dp:
            decision = ElasticDecision(
                old_plan=plan, new_plan=restart.plan, available_gpus=remaining
            )
        lost = int(self.rng.integers(0, cfg.checkpoint_interval_iterations))
        bandwidth_factor = event.kind.degraded_throughput if not event.kind.needs_replacement else 1.0
        load, extra, load_outcome = self._checkpoint_load(
            restart.recovery_time, bandwidth_factor
        )
        downtime = diagnose + manual + event.kind.repair_time + replace + restart.init_time + load
        return IncidentOutcome(
            downtime=downtime,
            diagnose=diagnose,
            auto=auto,
            lost_iterations=lost,
            extra_lost_iterations=extra,
            fell_back=load_outcome.fell_back if load_outcome is not None else False,
            spares_consumed=consumed,
            provisioned=provisioned,
            replan=decision,
            load=load_outcome,
        )

    # -- the run -------------------------------------------------------------------

    def run(self, duration: float) -> ProductionRunResult:
        """Simulate ``duration`` wall seconds of production training."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        cfg = self.config
        events = self.injector.sample(duration)
        log = RecoveryLog()
        loss_points: List[Tuple[float, float, int]] = []

        wall = 0.0
        iterations = 0
        effective = 0.0  # iterations weighted by shrunken-epoch token fraction
        restarts = 0
        plan = self.plan
        healthy_dp = self.plan.dp
        factor = 1.0  # tokens-per-iteration fraction of the healthy plan
        spares_left = self.spares
        available_gpus = plan.world_size

        def accrue(seconds: float, speed: float = 1.0) -> None:
            nonlocal iterations, effective
            done = int(seconds * speed / cfg.iteration_time)
            iterations += done
            effective += done * factor

        def record_loss() -> None:
            tokens = effective * cfg.tokens_per_iteration
            loss_points.append((tokens, self.loss_curve(tokens), restarts))
            if self.hub is not None:
                self.hub.sample("fault", "effective_iterations", wall, effective)

        record_loss()
        for event in events:
            if event.time <= wall:
                continue  # fault landed during a recovery window
            # Train until the fault.
            accrue(event.time - wall)
            wall = event.time
            record_loss()
            detect = detection_latency(event, self.rng, cfg)
            if event.kind.manifestation is Manifestation.SILENT:
                # Training limps on until the heat-map review: the slowest
                # participant gates the whole synchronous job.
                accrue(detect, speed=event.kind.degraded_throughput)
            outcome = self.resolve_incident(
                event, plan=plan, spares_left=spares_left, available_gpus=available_gpus
            )
            detected_at = wall + detect
            diagnosed_at = detected_at + outcome.diagnose
            resumed_at = detected_at + outcome.downtime
            if self.hub is not None:
                emit_incident_telemetry(
                    self.hub, event, detected_at, resumed_at,
                    auto=outcome.auto,
                    lost_iterations=outcome.lost_iterations,
                    spares_consumed=outcome.spares_consumed,
                    fell_back=outcome.fell_back,
                    monitors=self.monitors,
                )
            log.add(
                RecoveryRecord(
                    fault=event,
                    detected_at=detected_at,
                    diagnosed_at=diagnosed_at,
                    resumed_at=resumed_at,
                    auto=outcome.auto,
                    lost_iterations=outcome.lost_iterations,
                    fallback_load=outcome.fell_back,
                    extra_lost_iterations=outcome.extra_lost_iterations,
                    replanned_dp=outcome.replan.new_plan.dp if outcome.replan else None,
                    nodes_lost=event.blast_radius,
                    spares_consumed=outcome.spares_consumed,
                )
            )
            rolled_back = outcome.lost_iterations + outcome.extra_lost_iterations
            iterations = max(0, iterations - rolled_back)
            effective = max(0.0, effective - rolled_back * factor)
            if spares_left is not None:
                spares_left -= outcome.spares_consumed
            if event.kind.needs_replacement:
                short = event.blast_radius - outcome.spares_consumed - outcome.provisioned
                available_gpus -= short * self.gpus_per_node
            if outcome.replan is not None:
                plan = outcome.replan.new_plan
                factor = plan.dp / healthy_dp
                if self.hub is not None:
                    self.hub.instant(
                        "fault", "dp-shrink", resumed_at,
                        rank=event.node_index, dp=plan.dp, healthy_dp=healthy_dp,
                    )
                log.add_degraded(
                    DegradedInterval(
                        start=resumed_at,
                        dp=plan.dp,
                        healthy_dp=healthy_dp,
                        reason=f"{event.kind.name}@{event.domain or event.node_index}",
                    )
                )
            wall = resumed_at
            restarts += 1
            record_loss()
            if wall >= duration:
                break
        if wall < duration:
            accrue(duration - wall)
            wall = duration
            record_loss()
        log.close_degraded(wall)
        if self.hub is not None:
            for interval in log.degraded:
                self.hub.span(
                    "fault",
                    "degraded-dp",
                    0,
                    interval.start,
                    interval.end if interval.end is not None else wall,
                    stream="degraded",
                    dp=interval.dp,
                    healthy_dp=interval.healthy_dp,
                    reason=interval.reason,
                )
        return ProductionRunResult(
            wall_time=wall,
            completed_iterations=iterations,
            restarts=restarts,
            log=log,
            loss_points=loss_points,
            effective_iterations=effective,
            final_dp=plan.dp,
        )


def catch_up_time(config: ProductionRunConfig) -> float:
    """Expected time to regain pre-crash progress after resuming (§6.3).

    Lost progress averages half a checkpoint interval; "catching up"
    means re-running those iterations.
    """
    return lost_progress(config.checkpoint_interval_iterations, config.iteration_time)
