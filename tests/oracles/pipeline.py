"""The stage-polling task loop: the oracle for the compiled makespan.

:meth:`repro.training.iteration.IterationEngine.pipeline_makespan` runs
one pass over integer arrays compiled once per (p, v, m).  This is the
loop it replaced: it regenerates every stage's interleaved-1F1B task
list, re-derives each task's dependency with :func:`forward_dependency`
/ :func:`backward_dependency`, and polls the stages in order, each
running until it blocks on an upstream task.  The property tests in
``tests/training/test_makespan_recurrence.py`` hold the two equal bit
for bit, traced spans included.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.parallel.pipeline import PipelineTask, interleaved_schedule


def forward_dependency(
    p: int, v: int, stage: int, task: PipelineTask
) -> Optional[Tuple[int, PipelineTask]]:
    """The (stage, task) whose output this forward consumes, or None.

    The virtual-stage order walks stages 0..p-1 within a chunk, then wraps
    to chunk+1 on stage 0.
    """
    if task.kind != "F":
        raise ValueError("forward_dependency takes an F task")
    if stage > 0:
        return (stage - 1, PipelineTask("F", task.microbatch, task.chunk))
    if task.chunk > 0:
        return (p - 1, PipelineTask("F", task.microbatch, task.chunk - 1))
    return None  # first virtual stage reads input data


def backward_dependency(
    p: int, v: int, stage: int, task: PipelineTask
) -> Optional[Tuple[int, PipelineTask]]:
    """The (stage, task) whose gradient this backward consumes, or None."""
    if task.kind != "B":
        raise ValueError("backward_dependency takes a B task")
    if stage < p - 1:
        return (stage + 1, PipelineTask("B", task.microbatch, task.chunk))
    if task.chunk < v - 1:
        return (0, PipelineTask("B", task.microbatch, task.chunk + 1))
    return None  # last virtual stage starts from the loss


def pipeline_makespan_reference(
    engine,
    m: int,
    stage_speed: Optional[Sequence[float]] = None,
    trace: Optional[object] = None,
) -> Tuple[float, float]:
    """(makespan, max per-stage serial compute) for ``m`` micro-batches."""
    p, v = engine.plan.pp, engine.plan.vpp
    speeds = list(stage_speed) if stage_speed is not None else [1.0] * p
    if len(speeds) != p:
        raise ValueError(f"need {p} stage speed factors, got {len(speeds)}")
    if any(s <= 0 for s in speeds):
        raise ValueError("stage speed factors must be positive")

    schedules = [interleaved_schedule(p, v, m, s) for s in range(p)]
    warmup_end = [next((i for i, t in enumerate(sch) if t.kind == "B"), len(sch)) for sch in schedules]
    cooldown_start = [
        max((i for i, t in enumerate(sch) if t.kind == "F"), default=-1) + 1
        for sch in schedules
    ]

    done: Dict[Tuple[int, str, int, int], float] = {}
    ptr = [0] * p
    clock = [0.0] * p
    busy = [0.0] * p
    total_tasks = sum(len(s) for s in schedules)
    completed = 0
    while completed < total_tasks:
        progressed = False
        for s in range(p):
            while ptr[s] < len(schedules[s]):
                task = schedules[s][ptr[s]]
                if task.kind == "F":
                    dep = forward_dependency(p, v, s, task)
                else:
                    dep = backward_dependency(p, v, s, task)
                ready = 0.0
                if dep is not None:
                    dep_stage, dep_task = dep
                    key = (dep_stage,) + dep_task.key
                    if key not in done:
                        break  # blocked on an upstream task
                    ready = done[key] + engine.p2p_time
                duration = engine.task_time(s, task.kind, task.chunk) / speeds[s]
                index = ptr[s]
                if index < warmup_end[s]:
                    phase = "warmup"
                elif index >= cooldown_start[s]:
                    phase = "cooldown"
                else:
                    phase = "steady"
                send_block = (
                    engine.pp.sender_block_time(engine.p2p_time, phase)
                    if engine._task_sends(s, task.kind, task.chunk)
                    else 0.0
                )
                start = max(clock[s], ready)
                end = start + duration
                done[(s,) + task.key] = end
                if trace is not None:
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
                        trace.record(
                            "send",
                            rank=s,
                            start=end,
                            end=end + send_block,
                            stream="comm",
                        )
                clock[s] = end + send_block
                busy[s] += duration + send_block
                ptr[s] += 1
                completed += 1
                progressed = True
        if not progressed:
            raise RuntimeError("pipeline deadlocked: invalid schedule/dependency")
    return max(clock), max(busy)
