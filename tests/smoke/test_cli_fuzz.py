"""Fuzzed CLI inputs: any integer argparse accepts for a count flag ends
in a clean run or in one ``repro: error:`` line, never a traceback.

Smoke-marked (deselected from tier-1); CI runs it with the other gates::

    PYTHONPATH=src python -m pytest -m smoke --basetemp=smoke-out
"""

import contextlib
import io

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


@settings(max_examples=200, deadline=None)
@given(argv=invocations())
def test_count_flags_never_raise_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    lines = err.getvalue().splitlines()
    assert code in (0, 2), (argv, code, out.getvalue()[-500:])
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("repro: error:"), (argv, lines)
    assert "Traceback" not in out.getvalue() + err.getvalue()
