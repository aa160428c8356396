"""The compiled makespan pass, held bit for bit to the stage-polling loop
in :mod:`tests.oracles.pipeline`: same (makespan, busy), same traced
spans in the same order, same errors."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calibration import load_anchors
from repro.core.features import MEGASCALE, MEGASCALE_ISO_BATCH, MEGATRON_LM
from repro.exec.memo import clear_caches, registered_caches
from repro.model.transformer import ModelSpec
from repro.parallel import ParallelPlan
from repro.parallel.pipeline import compile_schedule
from repro.sim import TraceRecorder
from repro.training import IterationEngine
from tests.oracles.pipeline import pipeline_makespan_reference


def _engine(p, v, pp_overlap, p2p_scale=None):
    """A small engine with one layer per chunk; ``p2p_scale`` replaces the
    priced p2p hop by that multiple of a forward chunk (0 = free)."""
    model = ModelSpec(name="makespan-tiny", n_layers=p * v, hidden_size=256, n_heads=4)
    features = replace(MEGASCALE, pp_overlap=pp_overlap)
    engine = IterationEngine(model, ParallelPlan(dp=1, tp=1, pp=p, vpp=v), features)
    if p2p_scale is not None:
        engine.p2p_time = p2p_scale * engine.f_chunk
    return engine


def _assert_same_pass(engine, m, speeds):
    assert engine.pipeline_makespan(m, speeds) == pipeline_makespan_reference(engine, m, speeds)
    fast, slow = TraceRecorder(), TraceRecorder()
    result = engine.pipeline_makespan(m, speeds, trace=fast)
    assert result == pipeline_makespan_reference(engine, m, speeds, trace=slow)
    assert list(fast) == list(slow)


@st.composite
def shapes(draw):
    p = draw(st.integers(1, 8))
    v = 1 if p == 1 else draw(st.integers(1, 4))
    m = p * draw(st.integers(1, 4)) if v > 1 else draw(st.integers(1, 12))
    return p, v, m


@settings(max_examples=150, deadline=None)
@given(
    shape=shapes(),
    pp_overlap=st.booleans(),
    p2p_scale=st.sampled_from([None, 0.0, 0.05, 0.5, 3.0]),
    data=st.data(),
)
def test_compiled_pass_matches_polling_loop(shape, pp_overlap, p2p_scale, data):
    p, v, m = shape
    speeds = data.draw(
        st.none() | st.lists(st.floats(0.2, 1.5), min_size=p, max_size=p), label="speeds"
    )
    _assert_same_pass(_engine(p, v, pp_overlap, p2p_scale), m, speeds)


ANCHOR_CASES = [
    # (anchor id, features, straggler stage): the three anchor shapes.
    ("megascale-nsdi24/175b-256-megatron/mfu", MEGATRON_LM, 3),  # (8, 6, 192)
    ("megascale-nsdi24/530b-1120-megascale/mfu", MEGASCALE_ISO_BATCH, 20),  # (35, 3, 280)
    ("megatron-lm-sc21/1t/tflops_per_gpu", MEGATRON_LM, None),  # (64, 1, 512)
]


@pytest.mark.parametrize(
    "anchor_id, features, straggler", ANCHOR_CASES, ids=["8x6x192", "35x3x280", "64x1x512"]
)
def test_anchor_shapes_match_polling_loop(anchor_id, features, straggler):
    anchor = next(a for a in load_anchors() if a.id == anchor_id)
    engine = IterationEngine(anchor.model, anchor.plan, features)
    m = anchor.plan.n_microbatches(anchor.global_batch)
    speeds = None
    if straggler is not None:
        speeds = [1.0] * anchor.plan.pp
        speeds[straggler] = 0.8
    _assert_same_pass(engine, m, speeds)


@pytest.mark.parametrize(
    "p, v, m, speeds",
    [
        (4, 2, 6, None),  # m % p != 0 with interleaving
        (4, 1, 0, None),  # no micro-batches
        (4, 2, 0, None),
        (4, 2, 8, [1.0] * 3),  # one speed per stage
        (4, 2, 8, [1.0, 0.0, 1.0, 1.0]),
        (4, 1, 8, [1.0, 1.0, -0.5, 1.0]),
    ],
)
def test_invalid_shapes_and_speeds_raise_the_same_errors(p, v, m, speeds):
    engine = _engine(p, v, pp_overlap=True)
    with pytest.raises(ValueError) as reference:
        pipeline_makespan_reference(engine, m, speeds)
    with pytest.raises(ValueError) as compiled:
        engine.pipeline_makespan(m, speeds)
    assert str(compiled.value) == str(reference.value)


def test_compiled_shapes_live_in_a_bounded_registered_cache():
    cache = registered_caches()["pipeline_schedule"]
    assert compile_schedule.cache is cache
    assert cache.maxsize is not None
    first = compile_schedule(4, 2, 8)
    assert compile_schedule(4, 2, 8) is first
    clear_caches()
    assert not cache.store
    assert compile_schedule(4, 2, 8) is not first
