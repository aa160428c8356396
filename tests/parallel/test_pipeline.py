"""Tests for pipeline schedules and their dependency structure."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import (
    PipelineTask,
    bubble_fraction,
    interleaved_schedule,
    lamb_bubble_reduction,
    one_f_one_b_schedule,
)
from repro.parallel.pipeline import compile_schedule, schedule_slots
from tests.oracles.pipeline import backward_dependency, forward_dependency


def _task_counts(tasks):
    return Counter(t.kind for t in tasks)


def test_1f1b_task_counts_and_warmup():
    p, m = 4, 8
    for stage in range(p):
        tasks = one_f_one_b_schedule(p, m, stage)
        assert _task_counts(tasks) == {"F": m, "B": m}
        warmup = p - stage - 1
        assert [t.kind for t in tasks[:warmup]] == ["F"] * warmup
        # Steady phase alternates F, B.
        steady = tasks[warmup : warmup + 2 * (m - warmup)]
        assert [t.kind for t in steady] == ["F", "B"] * (m - warmup)


def test_1f1b_last_stage_strictly_alternates():
    tasks = one_f_one_b_schedule(p=4, m=6, stage=3)
    assert [t.kind for t in tasks] == ["F", "B"] * 6


def test_interleaved_covers_all_chunks_and_microbatches():
    p, v, m = 4, 2, 8
    for stage in range(p):
        tasks = interleaved_schedule(p, v, m, stage)
        forwards = {(t.microbatch, t.chunk) for t in tasks if t.kind == "F"}
        backwards = {(t.microbatch, t.chunk) for t in tasks if t.kind == "B"}
        expected = {(mb, c) for mb in range(m) for c in range(v)}
        assert forwards == expected
        assert backwards == expected


def test_interleaved_each_task_unique():
    tasks = interleaved_schedule(4, 3, 8, 2)
    keys = [t.key for t in tasks]
    assert len(keys) == len(set(keys))


def test_interleaved_warmup_deeper_than_1f1b():
    # Interleaving schedules more in-flight forwards during warm-up.
    p, v, m = 4, 2, 8
    plain = one_f_one_b_schedule(p, m, 0)
    inter = interleaved_schedule(p, v, m, 0)
    plain_warmup = next(i for i, t in enumerate(plain) if t.kind == "B")
    inter_warmup = next(i for i, t in enumerate(inter) if t.kind == "B")
    assert inter_warmup > plain_warmup


def test_interleaved_requires_m_divisible_by_p():
    with pytest.raises(ValueError):
        interleaved_schedule(p=4, v=2, m=6, stage=0)


def test_interleaved_v1_equals_1f1b():
    assert interleaved_schedule(4, 1, 8, 2) == one_f_one_b_schedule(4, 8, 2)


def test_backward_follows_own_forward_locally():
    # A stage can only run B(mb, c) after its own F(mb, c).
    for stage in range(4):
        tasks = interleaved_schedule(4, 2, 8, stage)
        seen_f = set()
        for t in tasks:
            if t.kind == "F":
                seen_f.add((t.microbatch, t.chunk))
            else:
                assert (t.microbatch, t.chunk) in seen_f


def test_forward_dependency_chain():
    p, v = 4, 2
    # Stage 0 chunk 0 reads data.
    assert forward_dependency(p, v, 0, PipelineTask("F", 0, 0)) is None
    # Stage 2 depends on stage 1, same chunk.
    dep = forward_dependency(p, v, 2, PipelineTask("F", 3, 1))
    assert dep == (1, PipelineTask("F", 3, 1))
    # Stage 0 chunk 1 wraps from last stage chunk 0.
    dep = forward_dependency(p, v, 0, PipelineTask("F", 3, 1))
    assert dep == (p - 1, PipelineTask("F", 3, 0))


def test_backward_dependency_chain():
    p, v = 4, 2
    # Last stage, last chunk starts from the loss.
    assert backward_dependency(p, v, p - 1, PipelineTask("B", 0, v - 1)) is None
    dep = backward_dependency(p, v, 1, PipelineTask("B", 2, 0))
    assert dep == (2, PipelineTask("B", 2, 0))
    dep = backward_dependency(p, v, p - 1, PipelineTask("B", 2, 0))
    assert dep == (0, PipelineTask("B", 2, 1))


def test_dependency_kind_validation():
    with pytest.raises(ValueError):
        forward_dependency(4, 2, 0, PipelineTask("B", 0, 0))
    with pytest.raises(ValueError):
        backward_dependency(4, 2, 0, PipelineTask("F", 0, 0))


def test_bubble_fraction_paper_formula():
    # §3.1: interleaving divides the bubble by v; more micro-batches shrink it.
    assert bubble_fraction(8, 1, 64) == pytest.approx(7 / 64)
    assert bubble_fraction(8, 6, 64) == pytest.approx(7 / 384)
    assert bubble_fraction(8, 6, 192) < bubble_fraction(8, 6, 64)


def test_lamb_bubble_reduction():
    # Comparing the paper's two bubble expressions at 4x batch gives a
    # 1/16 ratio (the paper quotes 87.5%; see EXPERIMENTS.md).
    reduction = lamb_bubble_reduction(v=6, p=8, m=8, batch_scale=4)
    assert reduction == pytest.approx(1 - 1 / 16)


def test_task_validation():
    with pytest.raises(ValueError):
        PipelineTask("X", 0, 0)
    with pytest.raises(ValueError):
        one_f_one_b_schedule(p=4, m=8, stage=4)
    with pytest.raises(ValueError):
        bubble_fraction(0, 1, 1)


@st.composite
def interleaved_shapes(draw):
    p = draw(st.integers(1, 10))
    v = draw(st.integers(1, 4))
    m = p * draw(st.integers(1, 4)) if v > 1 else draw(st.integers(1, 16))
    return p, v, m


@settings(max_examples=200, deadline=None)
@given(shape=interleaved_shapes())
def test_compiled_schedule_matches_readable_definition(shape):
    """Every compiled slot and dependency position is the one that
    interleaved_schedule and forward/backward_dependency define."""
    p, v, m = shape
    schedules = [interleaved_schedule(p, v, m, stage) for stage in range(p)]
    n = 2 * m * v
    flat = {(stage,) + task.key: stage * n + i
            for stage, tasks in enumerate(schedules) for i, task in enumerate(tasks)}
    slots = schedule_slots(v)
    compiled = compile_schedule(p, v, m)
    assert compiled.slots.shape == compiled.deps.shape == (p, n)
    for stage, tasks in enumerate(schedules):
        kinds = [task.kind for task in tasks]
        warmup_end = kinds.index("B")
        cooldown_start = n - kinds[::-1].index("F")
        expected_slots, expected_deps = [], []
        for i, task in enumerate(tasks):
            phase = "warmup" if i < warmup_end else "cooldown" if i >= cooldown_start else "steady"
            expected_slots.append(slots.index((task.kind, task.chunk, phase)))
            rule = forward_dependency if task.kind == "F" else backward_dependency
            dep = rule(p, v, stage, task)
            expected_deps.append(-1 if dep is None else flat[(dep[0],) + dep[1].key])
        assert compiled.slots[stage].tolist() == expected_slots
        assert compiled.deps[stage].tolist() == expected_deps


def test_compile_schedule_validation():
    with pytest.raises(ValueError, match="interleaving requires"):
        compile_schedule(4, 2, 6)
    with pytest.raises(ValueError, match=">= 1"):
        compile_schedule(4, 1, 0)
    assert compile_schedule(4, 1, 6).slots.shape == (4, 12)  # plain 1F1B takes any m
