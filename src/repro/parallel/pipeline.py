"""Pipeline-parallel schedules: 1F1B and interleaved 1F1B (§2, Fig. 2).

A schedule is a per-stage ordered list of :class:`PipelineTask`; that
list is the readable definition (``tests/oracles/pipeline.py`` pairs it
with each task's upstream dependency and polls it as a task loop).
The iteration engine prices the schedule from :func:`compile_schedule`:
the same tasks and dependencies compiled once per (p, v, m) into
per-stage integer arrays (each task's dependency position and a small
(kind, chunk, phase) slot id), so a makespan is one pass over integers
in which bubbles emerge from the dependency structure rather than from
a closed-form formula.  The closed forms are still provided for
analysis (`bubble_fraction`) and are property-tested against that pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..exec.memo import memoized


@dataclass(frozen=True)
class PipelineTask:
    """One unit of pipeline work on a stage: F or B of (micro-batch, chunk)."""

    kind: str  # "F" | "B"
    microbatch: int
    chunk: int  # virtual-stage (model chunk) index on this rank

    def __post_init__(self) -> None:
        if self.kind not in ("F", "B"):
            raise ValueError(f"task kind must be F or B, got {self.kind!r}")

    @property
    def key(self) -> Tuple[str, int, int]:
        return (self.kind, self.microbatch, self.chunk)


def one_f_one_b_schedule(p: int, m: int, stage: int) -> List[PipelineTask]:
    """PipeDream-flush 1F1B: warm-up, steady 1F1B, cool-down."""
    _validate(p, 1, m, stage)
    warmup = min(p - stage - 1, m)
    tasks: List[PipelineTask] = []
    fwd = bwd = 0
    for _ in range(warmup):
        tasks.append(PipelineTask("F", fwd, 0))
        fwd += 1
    while fwd < m:
        tasks.append(PipelineTask("F", fwd, 0))
        fwd += 1
        tasks.append(PipelineTask("B", bwd, 0))
        bwd += 1
    while bwd < m:
        tasks.append(PipelineTask("B", bwd, 0))
        bwd += 1
    return tasks


def interleaved_schedule(p: int, v: int, m: int, stage: int) -> List[PipelineTask]:
    """Megatron-LM interleaved 1F1B with ``v`` model chunks per stage.

    Micro-batch count ``m`` must be a multiple of ``p`` (Megatron's own
    requirement); ``v == 1`` degenerates to plain 1F1B.
    """
    _validate(p, v, m, stage)
    if v == 1:
        return one_f_one_b_schedule(p, m, stage)
    _validate_interleaving(p, m)
    total = m * v
    warmup = min((p - stage - 1) * 2 + (v - 1) * p, total)

    def f_task(k: int) -> PipelineTask:
        chunk = (k // p) % v
        mb = (k // (p * v)) * p + k % p
        return PipelineTask("F", mb, chunk)

    def b_task(k: int) -> PipelineTask:
        chunk = v - 1 - (k // p) % v
        mb = (k // (p * v)) * p + k % p
        return PipelineTask("B", mb, chunk)

    tasks: List[PipelineTask] = []
    fwd = bwd = 0
    for _ in range(warmup):
        tasks.append(f_task(fwd))
        fwd += 1
    while fwd < total:
        tasks.append(f_task(fwd))
        fwd += 1
        tasks.append(b_task(bwd))
        bwd += 1
    while bwd < total:
        tasks.append(b_task(bwd))
        bwd += 1
    return tasks


PHASES = ("warmup", "steady", "cooldown")


def schedule_slots(v: int) -> List[Tuple[str, int, str]]:
    """(kind, chunk, phase) of every slot id of a ``v``-chunk schedule.

    A task's cost depends on its stage and these three alone, so a
    makespan prices ``6·v`` slots per stage instead of every task.
    """
    return [(kind, chunk, phase) for kind in ("F", "B") for chunk in range(v) for phase in PHASES]


@dataclass(frozen=True, eq=False)
class CompiledSchedule:
    """:func:`interleaved_schedule` of every stage, as read-only integer
    arrays of shape ``(p, 2·m·v)``.

    Task ``i`` of stage ``s`` has the flat index ``s·2·m·v + i``.
    ``slots[s, i]`` is its slot id (an index into :func:`schedule_slots`)
    and ``deps[s, i]`` the flat index of the task whose output it
    consumes (-1 when it reads input data or starts from the loss).  A
    task is in the warm-up phase before its stage's first backward and
    in cool-down after its last forward.  Arrays, not lists, so a cached
    shape holds 16 bytes per task rather than an int object per entry.
    """

    slots: np.ndarray
    deps: np.ndarray


# 16 shapes hold every distinct shape of one plan search (at most 14 per
# catalog query) and of ``calibrate --check`` (15 over its 32 anchors).
@memoized("pipeline_schedule", maxsize=16)
def compile_schedule(p: int, v: int, m: int) -> CompiledSchedule:
    """The interleaved-1F1B schedule of shape (p, v, m), built by arithmetic.

    Stage ``s`` runs ``w`` warm-up forwards, then (forward, backward)
    pairs, then the remaining backwards, so a position maps to the
    stage's forward or backward counter ``k`` in closed form, and ``k``
    to (micro-batch, chunk) as in :func:`interleaved_schedule`.  A
    forward consumes the previous stage's forward of the same ``k`` (a
    backward the next stage's backward); across a chunk wrap the
    dependency steps ``k`` back by ``p``, and the inverse map gives the
    dependency's position on its stage.  Memoized per shape in a
    bounded cache; ``clear_caches()`` empties it.
    """
    _validate(p, v, m, 0)
    if v > 1:
        _validate_interleaving(p, m)
    total = m * v
    n = 2 * total
    stage = np.arange(p)[:, None]
    lead = (p - 1 - stage) if v == 1 else 2 * (p - 1 - stage) + (v - 1) * p
    w = np.minimum(lead, total)  # warm-up forwards
    tail = 2 * total - w  # first position past the last (F, B) pair
    i = np.arange(n)
    j = i - w
    forward = (i < w) | ((i < tail) & (j % 2 == 0))
    k = np.where(i < w, i, np.where(i >= tail, i - total, np.where(forward, w + j // 2, j // 2)))
    c = (k // p) % v
    chunk = np.where(forward, c, v - 1 - c)
    # The first backward sits at w + 1 (at ``total`` when w == total);
    # the last forward at tail - 2 (at total - 1).
    phase = np.where(i < np.minimum(w + 1, total), 0, np.where(i >= np.maximum(tail - 1, total), 2, 1))
    slots = (np.where(forward, 0, v) + chunk) * 3 + phase

    first, last = stage == 0, stage == p - 1
    dep_stage = np.where(forward, np.where(first, p - 1, stage - 1), np.where(last, 0, stage + 1))
    wraps = np.where(forward, first, last)  # to the neighbouring chunk
    kd = np.where(wraps, k - p, k)
    wd = w[dep_stage, 0]
    # Forward k sits at k during warm-up, then at 2k - w; backward k at
    # w + 2k + 1 while (F, B) pairs last, then at k + total.
    position = np.where(
        forward,
        np.where(kd < wd, kd, 2 * kd - wd),
        np.where(kd < total - wd, wd + 2 * kd + 1, kd + total),
    )
    none = wraps & (chunk == np.where(forward, 0, v - 1))
    deps = np.where(none, -1, dep_stage * n + position)
    slots.flags.writeable = deps.flags.writeable = False
    return CompiledSchedule(slots, deps)


def bubble_fraction(p: int, v: int, m: int) -> float:
    """Paper's §3.1 bubble ratio for interleaved 1F1B: (p-1)/(v*m)."""
    _validate(p, v, m, 0)
    return (p - 1) / (v * m)


def lamb_bubble_reduction(v: int, p: int, m: int, batch_scale: int = 4) -> float:
    """Fractional bubble saving from scaling batch by ``batch_scale`` (§3.1).

    Training ``batch_scale`` steps at 1x batch costs ``batch_scale * (p-1)/(v*m)``
    bubbles; one step at ``batch_scale``x costs ``(p-1)/(v*batch_scale*m)``.
    The paper's instance (4x) yields 1 - 1/16 = 93.75%... measured against
    total bubble time of the four steps: 1 - 1/(batch_scale**2).
    """
    if batch_scale < 1:
        raise ValueError("batch_scale must be >= 1")
    before = batch_scale * bubble_fraction(p, v, m)
    after = bubble_fraction(p, v, m * batch_scale)
    return 1.0 - after / before


def _validate_interleaving(p: int, m: int) -> None:
    if m % p != 0:
        raise ValueError(f"interleaving requires microbatches ({m}) % stages ({p}) == 0")


def _validate(p: int, v: int, m: int, stage: int) -> None:
    if p < 1 or v < 1 or m < 1:
        raise ValueError("p, v and m must all be >= 1")
    if not 0 <= stage < p:
        raise ValueError(f"stage {stage} out of range for p={p}")
