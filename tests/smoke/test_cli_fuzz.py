"""Fuzzed CLI inputs: any integer argparse accepts for a count flag ends
in a clean run or in one ``repro: error:`` line, never a traceback; a
float flag that is not finite and positive is always that one error line.

Smoke-marked (deselected from tier-1); CI runs it with the other gates::

    PYTHONPATH=src python -m pytest -m smoke --basetemp=smoke-out
"""

import contextlib
import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main

pytestmark = pytest.mark.smoke

_JOB = {"--gpus": (-4, 256), "--batch": (-4, 1024), "--tp": (-2, 16), "--pp": (-2, 16),
        "--vpp": (-2, 8)}

# The count flags of each command and the range each value is drawn from:
# zero and negatives included, clusters of at most 256 GPUs, and
# ``--workers`` kept serial.
COUNT_FLAGS = {
    "compare": _JOB,
    "init": _JOB,
    "tune": {**_JOB, "--top": (-2, 8), "--gpus-per-node": (-2, 16),
             "--max-micro-batch": (-2, 4), "--workers": (-2, 0)},
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
