"""Fuzzed CLI inputs: any integer argparse accepts for a count flag ends
in a clean run or in one ``repro: error:`` line, never a traceback; an
integer below its flag's minimum (a count below 1 for ``mc`` and
``calibrate``, a negative ``--seed``, a ``trace --width`` below 10), or
a float flag that is not finite and positive, is always that one error
line, naming the flag.  The trace readers take saved files as outside
input: ``trace`` and ``diagnose --trace`` on any JSON value, or on a
saved trace with one event field deleted or replaced, end normally or in
that one error line, and a ``trace --lane`` or ``diagnose --scenario``
name that does not exist is that one error line, naming the flag.  The
calibrate readers likewise take any JSON value as a ``--profile`` or
``--baseline`` file: the gate passes, fails, or stops at that one error
line.

Smoke-marked (deselected from tier-1); CI runs it with the other gates::

    PYTHONPATH=src python -m pytest -m smoke --basetemp=smoke-out
"""

import contextlib
import copy
import io
import json
import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calibration import FIT_PARAMS, default_fixture_dir
from repro.cli import main
from repro.observability.diagnosis import SCENARIOS

pytestmark = pytest.mark.smoke

_WORKLOAD = {"--gpus": (-4, 256), "--batch": (-4, 1024)}
_JOB = {**_WORKLOAD, "--tp": (-2, 16), "--pp": (-2, 16), "--vpp": (-2, 8)}

# The count flags of each command and the range each value is drawn from:
# zero and negatives included, and clusters of at most 256 GPUs.
COUNT_FLAGS = {
    "compare": _JOB,
    "init": _JOB,
    "tune": {**_WORKLOAD, "--top": (-2, 8), "--max-micro-batch": (-2, 4)},
    "validate": {"--gpus": (-4, 256), "--gpus-per-node": (-2, 16), "--nodes": (-2, 32),
                 "--nodes-per-pod": (-2, 64), "--group-size": (-2, 16),
                 "--trials": (-2, 50), "--seed": (-2, 4)},
}


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(COUNT_FLAGS)))
    argv = [command]
    for flag, (low, high) in COUNT_FLAGS[command].items():
        value = draw(st.none() | st.integers(low, high))
        if value is not None:
            argv += [flag, str(value)]
    return argv


def _run(argv):
    """(exit code, stdout, stderr) of one in-process CLI invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(argv=invocations())
def test_count_flags_never_raise_a_traceback(argv):
    code, out, err = _run(argv)
    lines = err.splitlines()
    assert code in (0, 2), (argv, code, out[-500:])
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("repro: error:"), (argv, lines)
    assert "Traceback" not in out + err


# Integer flags with a lower bound: (command prefix, flag -> (range
# drawn, smallest valid value)).  Every flag is always drawn.  ``mc`` runs
# a few seeds of a small cluster when all its counts are valid; the other
# commands run long, so they draw only invalid values and never run.
BOUNDED_INT_FLAGS = {
    "mc": (["mc", "--weeks", "0.05"],
           {"--seeds": ((-2, 3), 1), "--nodes": ((-2, 16), 1)}),
    "calibrate": (["calibrate", "--fit"], {"--max-evals": ((-2, 0), 1)}),
    "production": (["production"], {"--seed": ((-2**40, -1), 0)}),
    "schedule": (["schedule"], {"--seed": ((-2**40, -1), 0)}),
    "diagnose": (["diagnose", "--scenario", "clean"], {"--seed": ((-2**40, -1), 0)}),
}


@st.composite
def bounded_int_invocations(draw):
    command = draw(st.sampled_from(sorted(BOUNDED_INT_FLAGS)))
    prefix, flags = BOUNDED_INT_FLAGS[command]
    argv, invalid = list(prefix), []
    for flag, ((low, high), minimum) in flags.items():
        value = draw(st.integers(low, high))
        argv += [flag, str(value)]
        if value < minimum:
            invalid.append(flag)
    return argv, invalid


def _assert_rejects_invalid(argv, invalid, code, out, err):
    lines = err.splitlines()
    if invalid:
        assert code == 2, (argv, code, out[-500:])  # never a silent run
        assert any(flag in lines[0] for flag in invalid), (argv, lines)
    else:
        assert code in (0, 2), (argv, code, out[-500:])
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("repro: error:"), (argv, lines)
    assert "Traceback" not in out + err


@settings(max_examples=100, deadline=None)
@given(case=bounded_int_invocations())
def test_ints_below_their_minimum_fail_at_parse_time(case):
    argv, invalid = case
    _assert_rejects_invalid(argv, invalid, *_run(argv))


@pytest.fixture(scope="module")
def small_trace(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("trace") / "schedule.json")
    assert _run(["schedule", "--days", "0.5", "--trace", path])[0] == 0
    return path


@settings(max_examples=50, deadline=None)
@given(width=st.integers(-2, 16))
def test_trace_width_below_10_fails_at_parse_time(small_trace, width):
    argv = ["trace", small_trace, "--lane", "scheduler", "--width", str(width)]
    code, out, err = _run(argv)
    _assert_rejects_invalid(argv, ["--width"] if width < 10 else [], code, out, err)
    if width >= 10:
        assert code == 0, (argv, err)


# The float flags: (command prefix, flag, largest valid value drawn, exit
# codes a valid value may end in).  The prefixes and the largest values
# keep every run under a second; the gates (``calibrate --check``,
# ``validate``) may also exit 1 on a verdict.
FLOAT_FLAGS = {
    "production": (["production", "--gpus", "64"], "--weeks", 0.05, (0, 2)),
    "mc": (["mc", "--seeds", "2", "--nodes", "8"], "--weeks", 0.05, (0, 2)),
    "schedule": (["schedule"], "--days", 0.5, (0, 2)),
    "calibrate": (["calibrate", "--check"], "--drift-tolerance", 1.0, (0, 1, 2)),
    "validate": (["validate", "--gpus", "128", "--nodes-per-pod", "8", "--trials", "5"],
                 "--max-rel-error", 1.0, (0, 1, 2)),
}


@st.composite
def float_invocations(draw):
    command = draw(st.sampled_from(sorted(FLOAT_FLAGS)))
    prefix, flag, largest, codes = FLOAT_FLAGS[command]
    value = draw(
        st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0])
        | st.floats(max_value=0.0)
        | st.floats(min_value=0.0, max_value=largest, exclude_min=True)
    )
    # ``--flag=value``: argparse would read a bare "-inf" or "-1e-05" as a flag.
    return prefix + [f"{flag}={value!r}"], flag, value, codes


@settings(max_examples=200, deadline=None)
@given(case=float_invocations())
def test_float_flags_reject_non_finite_and_non_positive_values(case):
    argv, flag, value, codes = case
    code, out, err = _run(argv)
    lines = err.splitlines()
    if math.isfinite(value) and value > 0:
        assert code in codes, (argv, code, out[-500:])
    else:
        assert code == 2, (argv, code, out[-500:])  # never a silent pass
        assert flag in lines[0], (argv, lines)
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("repro: error:"), (argv, lines)
    assert "Traceback" not in out + err


# -- the trace readers -----------------------------------------------------------

# Any JSON value: a whole saved file, or one field of one event in it.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)


@pytest.fixture(scope="module")
def saved_run(tmp_path_factory):
    """(trace document of a small production run, its path)."""
    path = str(tmp_path_factory.mktemp("readers") / "run.json")
    argv = ["production", "--gpus", "64", "--weeks", "0.05", "--trace", path]
    assert _run(argv)[0] == 0
    with open(path) as handle:
        return json.load(handle), path


@st.composite
def trace_documents(draw, saved):
    """Any JSON value, or the saved trace with one event field deleted or
    replaced by any JSON value."""
    if draw(st.booleans()):
        return draw(json_values)
    document = copy.deepcopy(saved)
    events = document["traceEvents"]
    event = events[draw(st.integers(0, len(events) - 1))]
    field = draw(st.sampled_from(sorted(event)))
    if draw(st.booleans()):
        del event[field]
    else:
        event[field] = draw(json_values)
    return document


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_trace_readers_take_any_saved_file(saved_run, data):
    saved, run_path = saved_run
    document = data.draw(trace_documents(saved), label="document")
    path = run_path[: -len("run.json")] + "doc.json"  # no sidecar beside it
    with open(path, "w") as handle:
        json.dump(document, handle)
    for argv, codes in ((["trace", path], (0, 2)),
                        (["diagnose", "--trace", path], (0, 1, 2))):
        code, out, err = _run(argv)
        lines = err.splitlines()
        assert code in codes, (argv, code, out[-500:], err[-500:])
        if code == 2:
            assert len(lines) == 1 and lines[0].startswith("repro: error:"), (argv, lines)
        assert "Traceback" not in out + err


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_trace_lane_must_name_a_lane_of_the_document(saved_run, data):
    saved, path = saved_run
    names = sorted(
        e["args"]["name"] for e in saved["traceEvents"] if e["name"] == "process_name"
    )
    lane = data.draw(
        st.sampled_from([n.rsplit("/", 1)[-1] for n in names]) | st.text(), label="lane"
    )
    argv = ["trace", path, f"--lane={lane}"]
    code, out, err = _run(argv)
    known = any(name == lane or name.endswith(f"/{lane}") for name in names)
    _assert_rejects_invalid(argv, [] if known else ["--lane"], code, out, err)
    if known:
        assert code == 0, (argv, err)


@settings(max_examples=100, deadline=None)
@given(name=st.text().filter(lambda name: name not in SCENARIOS))
def test_diagnose_scenario_must_be_known(name):
    argv = ["diagnose", f"--scenario={name}"]
    _assert_rejects_invalid(argv, ["--scenario"], *_run(argv))


# -- the calibrate readers -------------------------------------------------------

ONE_ANCHOR_ID = "megatron-lm-sc21/1.7b/tflops_per_gpu"


@pytest.fixture(scope="module")
def one_anchor(tmp_path_factory):
    """A fixture directory holding one SC21 row, so each run prices one
    anchor, and the path beside it that each example writes."""
    root = tmp_path_factory.mktemp("calibrate")
    with open(os.path.join(default_fixture_dir(), "megatron_lm_sc21.json")) as handle:
        fixture = json.load(handle)
    fixture["anchors"] = fixture["anchors"][:1]
    (root / "fixtures").mkdir()
    (root / "fixtures" / "sc21.json").write_text(json.dumps(fixture))
    return str(root / "fixtures"), str(root / "input.json")


# Any JSON value, or one shaped like the file the flag names, with any
# JSON value in its fields.
numbers = st.floats() | st.integers() | json_values
calibrate_files = {
    "--profile": json_values | st.builds(
        lambda constants: {"constants": constants},
        st.dictionaries(st.sampled_from(FIT_PARAMS) | st.text(max_size=3), numbers,
                        max_size=3),
    ),
    "--baseline": json_values | st.builds(
        lambda entries: {"anchors": entries},
        st.lists(
            st.fixed_dictionaries(
                {"anchor_id": st.just(ONE_ANCHOR_ID) | json_values, "predicted": numbers}
            )
            | json_values,
            max_size=2,
        ),
    ),
}


@settings(max_examples=150, deadline=None)
@given(flag=st.sampled_from(sorted(calibrate_files)), data=st.data())
def test_calibrate_readers_take_any_file(one_anchor, flag, data):
    fixtures, path = one_anchor
    with open(path, "w") as handle:
        json.dump(data.draw(calibrate_files[flag], label="file"), handle)
    argv = ["calibrate", "--check", "--fixtures", fixtures, flag, path]
    code, out, err = _run(argv)
    lines = err.splitlines()
    assert code in (0, 1, 2), (argv, code, out[-500:], err[-500:])
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("repro: error:"), (argv, lines)
    assert "Traceback" not in out + err
