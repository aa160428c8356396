"""Run every entry point under a call tracer and write what it reached.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python -m tests.smoke.reachability OUT.json WORKDIR

A global ``sys.settrace`` hook, installed before ``repro`` is imported
(so import-time calls count), adds each called frame's code object to a
set and returns ``None`` (no line tracing).  The process then runs, in
order: the CLI list of :mod:`tests.smoke.entry_points`, every example
with :data:`~tests.smoke.entry_points.SMALL_ARGS`, and the paper-figure
tests in ``benchmarks/`` except ``test_fig10_convergence.py``, which
alone takes most of their time.  Worker processes are not traced.

``OUT.json`` holds one ``[path, first line, name]`` triple per code
object from ``src/``, the path relative to the repository root.
``tests/smoke/test_reachability.py`` matches them to the ``def``s.
"""

import contextlib
import io
import json
import os
import runpy
import sys
import threading

from tests.smoke.entry_points import CLI_RUNS, EXAMPLES, ROOT, SMALL_ARGS

SKIPPED_FIGURE = "benchmarks/test_fig10_convergence.py"

_CODES = set()


def _trace(frame, event, arg):
    _CODES.add(frame.f_code)


def _short_baseline(report: str, out: str) -> None:
    """A copy of a saved calibration report without its last anchor."""
    with open(report, encoding="utf-8") as fh:
        document = json.load(fh)
    document["anchors"] = document["anchors"][:-1]
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(document, fh)


def _run_cli(workdir: str, log) -> None:
    from repro.cli import main

    os.chdir(workdir)
    for argv, expected in CLI_RUNS:
        if "short-baseline.json" in argv:
            _short_baseline("calibration.json", "short-baseline.json")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = main(argv)
            except SystemExit as exc:
                status = exc.code
        if (status or 0) != expected:
            raise SystemExit(
                f"repro {' '.join(argv)}: exit {status}, expected {expected}\n"
                f"{err.getvalue()[-2000:]}"
            )
        log.write(out.getvalue())


def _run_examples(workdir: str, log) -> None:
    for script in EXAMPLES:
        directory = os.path.join(workdir, script.stem)
        os.makedirs(directory, exist_ok=True)
        os.chdir(directory)
        sys.argv = [str(script), *SMALL_ARGS.get(script.name, [])]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                runpy.run_path(str(script), run_name="__main__")
            except SystemExit as exc:
                if exc.code not in (None, 0):
                    raise SystemExit(f"{script.name}: exit {exc.code}")
        log.write(out.getvalue())


def _run_figures(workdir: str) -> None:
    import pytest

    os.chdir(ROOT)
    status = pytest.main([
        "benchmarks", "-q", "-p", "no:cacheprovider", "--benchmark-disable",
        "--ignore", SKIPPED_FIGURE, "--basetemp", os.path.join(workdir, "figures"),
    ])
    if status != 0:
        raise SystemExit(f"pytest benchmarks: exit {status}")


def main(out_path: str, workdir: str) -> None:
    sys.settrace(_trace)
    threading.settrace(_trace)
    with open(os.path.join(workdir, "stdout.txt"), "w", encoding="utf-8") as log:
        _run_cli(workdir, log)
        _run_examples(workdir, log)
    _run_figures(workdir)
    sys.settrace(None)
    threading.settrace(None)
    src = str(ROOT / "src") + os.sep
    reached = sorted(
        {
            (os.path.relpath(path, ROOT), code.co_firstlineno, code.co_name)
            for code in _CODES
            for path in [os.path.abspath(code.co_filename)]
            if path.startswith(src)
        }
    )
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(reached, fh)


if __name__ == "__main__":
    main(*sys.argv[1:3])
