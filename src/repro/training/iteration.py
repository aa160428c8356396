"""The training-iteration engine.

Executes one optimizer step of a 3D-parallel job on the simulated
substrate and returns its wall time with a full breakdown.  The pipeline
phase runs the real interleaved-1F1B dependency structure, compiled once
per (p, v, m) into integer arrays, as one pass in which every task starts
at the later of its stage's clock and its upstream task's end plus a p2p
hop (bubbles, warm-up stalls and straggler effects *emerge*; they are not
closed-form estimates); TP/SP and DP communication exposure come from
the overlap models of :mod:`repro.training.overlap`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..collectives.groups import GroupCommModel, build_comm_model
from ..collectives.primitives import validate_backend
from ..core.features import FeatureSet
from ..hardware.gpu import AMPERE, GpuSpec
from ..model.blocks import activation_bytes, block_cost, embedding_cost, logits_block_cost
from ..model.flops import iteration_model_flops
from ..model.transformer import ModelSpec
from ..parallel.pipeline import (
    PHASES,
    compile_schedule,
    interleaved_schedule,
    schedule_slots,
    validate_shape,
)
from ..parallel.plan import ParallelPlan
from ..parallel.zero import dp_comm_events, optimizer_step_time
from .datapipe import data_pipeline_cost, overlap_window
from .overlap import dp_exposed_time, pp_policy, tp_exposed_per_layer


@dataclass(frozen=True)
class IterationResult:
    """One simulated optimizer step."""

    iteration_time: float
    pipeline_time: float  # makespan of the pipelined fwd/bwd phase
    compute_time: float  # per-stage serial compute (no stalls), max stage
    data_stall: float
    dp_exposed: float
    dp_total_comm: float
    optimizer_time: float
    perturbation: float
    mfu: float
    tokens_per_second: float

    @property
    def bubble_fraction(self) -> float:
        """Fraction of the pipeline phase a stage spent stalled."""
        if self.pipeline_time == 0:
            return 0.0
        return max(0.0, 1.0 - self.compute_time / self.pipeline_time)

    def terms(self) -> Dict[str, float]:
        """The additive per-term breakdown of ``iteration_time``.

        These are the cost-model terms the diagnosis layer residualizes:
        ``pipeline + data_stall + dp_exposed + optimizer (+ perturbation)``
        sums to ``iteration_time`` exactly, so an observed slowdown can be
        attributed to the term that drifted.
        """
        return {
            "pipeline": self.pipeline_time,
            "data_stall": self.data_stall,
            "dp_exposed": self.dp_exposed,
            "optimizer": self.optimizer_time,
            "perturbation": self.perturbation,
        }


class IterationEngine:
    """Prices one iteration of (model, plan, features) on given hardware."""

    def __init__(
        self,
        model: ModelSpec,
        plan: ParallelPlan,
        features: FeatureSet,
        gpu: GpuSpec = AMPERE,
        comm_model: Optional[GroupCommModel] = None,
        backend: str = "analytic",
        profile: Optional[object] = None,
    ) -> None:
        """``backend`` selects the collective cost backend ("analytic" or
        "fabric", see :mod:`repro.collectives.fabric`) for the comm model
        built here; an explicitly passed ``comm_model`` keeps its own.

        ``profile`` is an optional
        :class:`~repro.calibration.CalibratedProfile` (duck-typed to avoid
        an import cycle): its fitted constants override the ``gpu`` spec
        and — for a comm model built here — the collective parameters,
        without editing any catalog source.  It never fits
        ``gpu.peak_flops``, the *datasheet* peak of the MFU denominator,
        so a profile changes predicted times, never that denominator.
        """
        validate_backend(backend)
        self.base_model = model
        self.plan = plan
        self.features = features
        self.profile = profile
        if profile is not None:
            gpu = profile.apply_gpu(gpu)
        self.gpu = gpu
        if comm_model is None:
            comm_kwargs = {"backend": backend}
            if profile is not None:
                if getattr(profile, "cc_efficiency", None) is not None:
                    comm_kwargs["cc_efficiency"] = profile.cc_efficiency
                if getattr(profile, "inter_node_latency", None) is not None:
                    comm_kwargs["inter_node_latency"] = profile.inter_node_latency
            comm_model = build_comm_model(plan, **comm_kwargs)
        self.comm = comm_model
        self.backend = self.comm.backend
        # Apply the algorithmic options to the executed model.  MFU is
        # still computed against the full-attention reference model.
        self.exec_model = model.with_options(
            parallel_block=features.parallel_block,
            attention_window=features.sliding_window,
        )
        self._build_task_times()
        # (global_batch, exact DP phase) that analytic_bounds priced on the
        # analytic backend, where its DP phase is exact: simulate reuses it.
        self._bounded_dp_phase: Optional[Tuple[int, tuple]] = None

    # -- static per-task costs ------------------------------------------------

    def _build_task_times(self) -> None:
        plan, features = self.plan, self.features
        self.layers_per_chunk = plan.layers_per_chunk(self.base_model.n_layers)
        cost = block_cost(
            self.exec_model,
            self.gpu,
            tp=plan.tp,
            micro_batch=plan.micro_batch,
            flash_attention=features.flash_attention,
            fused_kernels=features.fused_kernels,
            sequence_parallel=plan.sequence_parallel,
        )
        exposure = tp_exposed_per_layer(cost, features)
        self.f_chunk = self.layers_per_chunk * (cost.forward_compute + exposure.forward)
        self.b_chunk = self.layers_per_chunk * (cost.backward_compute + exposure.backward)
        if plan.recompute == "full":
            # Full recomputation re-runs the layer forward inside backward.
            self.b_chunk += self.layers_per_chunk * cost.forward_compute
        self.embed_extra = embedding_cost(self.exec_model, self.gpu, plan.tp, plan.micro_batch)
        logits = logits_block_cost(self.exec_model, self.gpu, plan.tp, plan.micro_batch)
        self.logits_fwd, self.logits_bwd = logits.forward, logits.backward
        self.p2p_bytes = activation_bytes(self.exec_model, plan.micro_batch)
        self.pp = pp_policy(features)

    @functools.cached_property
    def p2p_time(self) -> float:
        """Seconds of one pipeline hop (stage 0's activations to stage 1).

        Priced on first read: on the fabric backend that routes the hop,
        which :meth:`simulate` needs and :meth:`analytic_bounds` does not.
        """
        return self.comm.pp_p2p_time(self.p2p_bytes)

    def task_time(self, stage: int, kind: str, chunk: int) -> float:
        """Compute (+ exposed TP comm) seconds of one pipeline task."""
        base = self.f_chunk if kind == "F" else self.b_chunk
        if stage == 0 and chunk == 0 and kind == "F":
            base += self.embed_extra
        if stage == self.plan.pp - 1 and chunk == self.plan.vpp - 1:
            base += self.logits_fwd if kind == "F" else self.logits_bwd
        return base

    # -- pipeline execution -----------------------------------------------------

    def pipeline_makespan(
        self,
        m: int,
        stage_speed: Optional[Sequence[float]] = None,
        trace: Optional[object] = None,
    ) -> Tuple[float, float]:
        """(makespan, max per-stage serial compute) for ``m`` micro-batches.

        Runs the interleaved-1F1B schedule compiled once per (p, v, m) by
        :func:`~repro.parallel.pipeline.compile_schedule` as one pass over
        its integer arrays.  Only each stage's (kind, chunk, phase) slots
        are priced.  A task starts once its stage is free and its
        upstream task's output has arrived (its end plus one p2p hop);
        the stages are polled in order, each running until its next task
        waits on an unfinished upstream task.  ``stage_speed`` derates
        each stage's compute (straggler hosts).  Pass a
        :class:`~repro.sim.TraceRecorder` as ``trace`` to record every
        task as a span (rank = pipeline stage) for the Figure 8 timeline.
        """
        p, v = self.plan.pp, self.plan.vpp
        speeds = list(stage_speed) if stage_speed is not None else [1.0] * p
        if len(speeds) != p:
            raise ValueError(f"need {p} stage speed factors, got {len(speeds)}")
        if any(s <= 0 for s in speeds):
            raise ValueError("stage speed factors must be positive")
        schedule = compile_schedule(p, v, m)
        # Python lists: indexing one is several times cheaper than a numpy array.
        stage_deps, stage_slots = schedule.deps.tolist(), schedule.slots.tolist()
        labels = [interleaved_schedule(p, v, m, s) for s in range(p)] if trace is not None else None

        # Each stage's seconds per slot: compute, then the sender-side
        # block of its p2p send.
        p2p = self.p2p_time
        slots = schedule_slots(v)
        phase_block = {phase: self.pp.sender_block_time(p2p, phase) for phase in PHASES}
        durations, blocks = [], []
        for s in range(p):
            durations.append([self.task_time(s, kind, chunk) / speeds[s] for kind, chunk, _ in slots])
            blocks.append([
                phase_block[phase] if self._task_sends(s, kind, chunk) else 0.0
                for kind, chunk, phase in slots
            ])

        n = 2 * m * v
        done: List[Optional[float]] = [None] * (p * n)
        ptr = [0] * p
        clock = [0.0] * p
        busy = [0.0] * p
        remaining = p * n
        while remaining:
            before = remaining
            for s in range(p):
                i = ptr[s]
                deps, slot_ids = stage_deps[s], stage_slots[s]
                duration, block = durations[s], blocks[s]
                now, work, base = clock[s], busy[s], s * n
                while i < n:
                    d = deps[i]
                    if d < 0:
                        ready = 0.0
                    else:
                        ready = done[d]
                        if ready is None:
                            break  # blocked on an upstream task
                        ready += p2p
                    k = slot_ids[i]
                    start = ready if ready > now else now  # max(now, ready), minus a call
                    end = start + duration[k]
                    done[base + i] = end
                    send_block = block[k]
                    if labels is not None:
                        task = labels[s][i]
                        trace.record(
                            task.kind,
                            rank=s,
                            start=start,
                            end=end,
                            stream="compute",
                            microbatch=task.microbatch,
                            chunk=task.chunk,
                        )
                        if send_block:
                            trace.record("send", rank=s, start=end, end=end + send_block, stream="comm")
                    now = end + send_block
                    work += duration[k] + send_block
                    i += 1
                remaining -= i - ptr[s]
                ptr[s], clock[s], busy[s] = i, now, work
            if remaining == before:
                raise RuntimeError("pipeline deadlocked: invalid schedule/dependency")
        return max(clock), max(busy)

    def _task_sends(self, stage: int, kind: str, chunk: int) -> bool:
        p, v = self.plan.pp, self.plan.vpp
        if kind == "F":
            return not (stage == p - 1 and chunk == v - 1)  # loss stays local
        return not (stage == 0 and chunk == 0)  # grads of the first chunk stay

    def pp_send_counts(self, m: int) -> list:
        """Pipeline sends each stage's NIC carries per iteration.

        Every stage runs ``m·v`` forwards and ``m·v`` backwards, and each
        sends its output on but for the two kept on the GPU (see
        :meth:`_task_sends`): the last stage's final forward chunk feeds
        the loss and the first stage's first backward chunk has no
        upstream stage.  So stage ``s`` sends ``m·(2v − [s = p−1] −
        [s = 0])``, the interleaved schedule's count in Megatron-LM
        (Narayanan et al., 2021).
        """
        if m < 1:
            raise ValueError("m must be >= 1")
        p, v = self.plan.pp, self.plan.vpp
        return [m * (2 * v - (s == p - 1) - (s == 0)) for s in range(p)]

    # -- analytic bounds (no task-graph execution) ---------------------------------

    def _dp_phase_times(self, global_batch: int, floor: bool = False):
        """(data_cost, dp_exposure, optimizer_time) — the closed-form,
        non-pipeline phases of :meth:`simulate`, priced exactly, or with
        ``floor`` floored without routing (see :meth:`analytic_bounds`).

        DP collective times are computed first: the asynchronous data
        pipeline hides next-step preprocessing under *this* step's
        gradient synchronization (§3.4), so that phase's duration is the
        finite hide window ``data_pipeline_cost`` charges residuals
        against.  A floored grad sync would overstate the stall, so
        ``floor`` hides under an unbounded window instead."""
        events = dp_comm_events(self.base_model, self.plan)
        price = self.comm.dp_collective_floor if floor else self.comm.dp_collective_time
        timed = [(e, price(e.kind, e.size)) for e in events]
        grad_sync = sum(
            t for e, t in timed if e.kind in ("reduce_scatter", "all_reduce")
        )
        data = data_pipeline_cost(
            self.base_model,
            self.plan,
            global_batch,
            self.features,
            hide_window=math.inf if floor else grad_sync,
        )
        window = overlap_window(data, self.features)
        dp = dp_exposed_time(timed, self.features, data_load_window=window)
        optimizer = optimizer_step_time(self.base_model, self.plan, self.gpu.memory_bandwidth)
        return data, dp, optimizer

    def analytic_bounds(self, global_batch: int) -> float:
        """Admissible lower bound on ``simulate(global_batch).iteration_time``.

        Everything outside the pipeline phase (data stall, exposed DP
        communication, optimizer step) is closed-form and priced exactly;
        DP exposure is floored at the overlap model's value (the
        NIC-spill term of ``simulate`` can only add).  On the analytic
        backend that DP phase is exact, and a later ``simulate`` of the
        same batch on this engine reuses it instead of pricing it again.
        The pipeline makespan is floored by the busiest stage's serial
        work and by a dependency chain: every stage's schedule begins
        with the forward of (micro-batch 0, chunk 0) and ends with the
        backward of (last micro-batch, chunk 0), so the makespan is at
        least the warm-up chain into the last stage (``(p-1)`` forwards
        + p2p hops), plus that stage's serial work (``m·v·(F+B)`` +
        logits extras), plus the cool-down chain back to stage 0
        (``(p-1)`` backwards + p2p hops).  With ``v`` interleaved chunks
        the chain terms carry the classic ``(p-1)/(v·m)`` bubble
        fraction.

        On the fabric backend nothing is routed: the DP collectives and
        the p2p hop are floored by
        :meth:`~repro.collectives.groups.GroupCommModel.dp_collective_floor`
        and :meth:`~repro.collectives.groups.GroupCommModel.pp_p2p_floor`
        (a one-host ring or same-host hop keeps its exact analytic
        price).  The bound stays admissible because every term it floors
        only grows with the prices it replaces:

        * no routed flow outruns its NIC x cc demand (the water-fill never
          exceeds a flow's demand, and a PFC pause only derates it);
        * no routed step pays under the 12 us of a same-pod step
          (:data:`~repro.collectives.fabric.MIN_ROUTED_LATENCY`), so each
          collective and hop is at least its floor;
        * DP exposure grows with every collective's time (the prefetch
          window it is credited against does not depend on them), and the
          bubble floor grows with the hop;
        * the data stall shrinks as grad sync grows, so it is floored at
          an unbounded hide window.

        A batch or schedule shape ``simulate`` cannot run raises the same
        ``ValueError`` here.  The bound holds for the default ``simulate``
        arguments (uniform stage speeds, no perturbation) — the
        configuration :func:`~repro.parallel.search.search_plans` prices.
        """
        routed = self.backend == "fabric"
        m = self._microbatches(global_batch)
        p2p = 0.0
        if self.plan.pp > 1:
            p2p = self.comm.pp_p2p_floor(self.p2p_bytes) if routed else self.p2p_time
        pipeline = self._pipeline_floor(m, p2p)

        phase = self._dp_phase_times(global_batch, floor=routed)
        if not routed:
            self._bounded_dp_phase = (global_batch, phase)
        data, dp, optimizer = phase
        return data.exposed_stall + optimizer + pipeline + dp.exposed

    def comm_free_floor(self, global_batch: int) -> float:
        """A floor on :meth:`analytic_bounds` that makes no comm-model call.

        It is the bound's pipeline term at a free p2p hop: the busiest
        stage's serial work and the ``(p-1)`` warm-up/cool-down chain
        around the last stage, per-chunk compute only.  It never exceeds
        :meth:`analytic_bounds` in floating point: that bound is the same
        formula at a hop of at least zero, plus terms that are never
        negative, and IEEE addition, multiplication by a non-negative
        number and ``max`` are monotone.  It raises the bound's errors.
        """
        return self._pipeline_floor(self._microbatches(global_batch), 0.0)

    def _microbatches(self, global_batch: int) -> int:
        """Micro-batches per step, or the ``ValueError`` of a shape that
        ``simulate`` cannot run."""
        m = self.plan.n_microbatches(global_batch)
        validate_shape(self.plan.pp, self.plan.vpp, m)
        return m

    def _pipeline_floor(self, m: int, p2p: float) -> float:
        """Floor on the pipeline makespan at ``m`` micro-batches and a
        ``p2p``-second hop (see :meth:`analytic_bounds`)."""
        p, v = self.plan.pp, self.plan.vpp
        F, B = self.f_chunk, self.b_chunk
        logits = self.logits_fwd + self.logits_bwd
        stage_work = m * v * (F + B)
        busy_last = stage_work + m * logits
        busy_first = stage_work + m * self.embed_extra + (m * logits if p == 1 else 0.0)
        bubble = (p - 1) * (F + B + 2.0 * p2p)
        return max(busy_first, busy_last + bubble)

    # -- full iteration ------------------------------------------------------------

    def simulate(
        self,
        global_batch: int,
        stage_speed: Optional[Sequence[float]] = None,
        perturbation: float = 0.0,
        speed_factor: float = 1.0,
    ) -> IterationResult:
        """One optimizer step at ``global_batch`` sequences.

        ``speed_factor`` derates every stage uniformly (whole-job
        straggler effect); ``stage_speed`` derates individual stages.
        """
        plan = self.plan
        m = plan.n_microbatches(global_batch)
        if not 0 < speed_factor <= 1:
            raise ValueError("speed_factor must be in (0, 1]")
        speeds = list(stage_speed) if stage_speed is not None else [1.0] * plan.pp
        speeds = [s * speed_factor for s in speeds]
        pipeline, busy = self.pipeline_makespan(m, speeds)

        bounded = self._bounded_dp_phase
        if bounded is not None and bounded[0] == global_batch:
            data, dp, optimizer = bounded[1]
        else:
            data, dp, optimizer = self._dp_phase_times(global_batch)
        # Hidden DP traffic still needs NIC-seconds, and the NIC is also
        # carrying pipeline p2p transfers; if the pipeline phase is too
        # short to absorb both, the excess surfaces on the critical path.
        hidden = dp.total_comm - dp.exposed
        # Each rank's NIC carries the pp sends of its own stage, and a DP
        # collective is gated by the busiest NIC in its (per-stage) ring —
        # so budget against the stage with the most actual sends.  Not
        # every F/B task sends (see _task_sends), so this is strictly
        # fewer than the naive 2*m*vpp when pp <= 2.
        pp_sends = max(self.pp_send_counts(m)) if plan.pp > 1 else 0
        pp_nic_time = pp_sends * self.p2p_time if plan.pp > 1 else 0.0
        nic_budget = max(0.0, pipeline - pp_nic_time)
        spill = max(0.0, hidden - nic_budget)
        dp_exposed = dp.exposed + spill

        total = data.exposed_stall + pipeline + dp_exposed + optimizer + perturbation
        flops = iteration_model_flops(self.base_model, global_batch)
        mfu = flops / total / (plan.world_size * self.gpu.peak_flops)
        tokens = global_batch * self.base_model.seq_len / total
        return IterationResult(
            iteration_time=total,
            pipeline_time=pipeline,
            compute_time=busy,
            data_stall=data.exposed_stall,
            dp_exposed=dp_exposed,
            dp_total_comm=dp.total_comm,
            optimizer_time=optimizer,
            perturbation=perturbation,
            mfu=mfu,
            tokens_per_second=tokens,
        )
