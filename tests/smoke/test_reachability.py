"""Every ``src/`` function is reached by an entry point or allowlisted.

One fresh process (``tests/smoke/reachability.py``) runs the CLI list,
the examples and the paper-figure tests under a call tracer.  Each
reached code object is matched to its ``def`` by (file, first line); a
decorated function's code starts at its first decorator.  A function
counts as reached when its code ran at least once; a nested ``def`` is
checked only when the function around it was reached.

``tests/smoke/reachability_allowlist.txt`` lists the functions that no
entry point reaches but that stay, one per line::

    src/repro/fault/interval.py::plan_interval  # docs/api.md § Fault tolerance

The reason after ``#`` is one of:

* ``docs/api.md § <section>`` — library API that section documents;
* ``called by <caller> when <condition>`` — a real caller on inputs the
  entry points do not draw;
* ``reached only by benchmarks/test_fig10_convergence.py, which the gate
  skips for time``;
* ``used by tests/oracles/<module>.py`` — the oracle calls it.

The gate fails when a function is neither reached nor allowlisted, when
an allowlisted function is reached or no longer exists, and when an
entry's reason is missing or of another kind.  Smoke-marked (deselected
from tier-1)::

    PYTHONPATH=src python -m pytest -m smoke tests/smoke/test_reachability.py
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from tests.smoke.entry_points import ROOT

pytestmark = pytest.mark.smoke

ALLOWLIST = Path(__file__).with_name("reachability_allowlist.txt")
FIG10 = (
    "reached only by benchmarks/test_fig10_convergence.py, "
    "which the gate skips for time"
)
# Code objects that are not functions: module and class bodies,
# lambdas and (before Python 3.12) comprehensions.
NOT_DEFS = {"<module>", "<lambda>", "<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}


def source_defs():
    """Every function ``def`` under ``src/repro``.

    Returns ``(defs, classes)``: ``defs`` maps (path, first line) to
    (qualname, key of the enclosing function or None); ``classes`` holds
    the (path, first line) of every class body.
    """
    defs, classes = {}, set()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        rel = path.relative_to(ROOT).as_posix()

        def walk(node, prefix, outer):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    key = (rel, first)
                    if isinstance(child, ast.ClassDef):
                        classes.add(key)
                        walk(child, f"{prefix}{child.name}.", outer)
                    else:
                        defs[key] = (prefix + child.name, outer)
                        walk(child, f"{prefix}{child.name}.<locals>.", key)
                else:
                    walk(child, prefix, outer)

        walk(ast.parse(path.read_text(encoding="utf-8")), "", None)
    return defs, classes


def read_allowlist(sections):
    """``{path::qualname: reason}`` plus a list of malformed entries."""
    entries, problems = {}, []
    for number, line in enumerate(ALLOWLIST.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        name, _, reason = (part.strip() for part in line.partition("#"))
        if name in entries:
            problems.append(f"line {number}: {name} listed twice")
        entries[name] = reason
        if not reason:
            problems.append(f"line {number}: {name} has no reason")
        elif reason.startswith("docs/api.md § "):
            if reason[len("docs/api.md § "):] not in sections:
                problems.append(f"line {number}: no docs/api.md section {reason!r}")
        elif reason.startswith("used by tests/oracles/"):
            if not (ROOT / reason[len("used by "):]).is_file():
                problems.append(f"line {number}: no such oracle in {reason!r}")
        elif not (reason == FIG10 or re.match(r"called by `[^`]+` when \S", reason)):
            problems.append(f"line {number}: reason of no allowed kind: {reason!r}")
    return entries, problems


def test_every_src_function_is_reached_or_allowlisted(tmp_path):
    out = tmp_path / "reached.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "tests.smoke.reachability", str(out), str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    (tmp_path / "tracer-output.txt").write_text(proc.stdout + proc.stderr)
    assert proc.returncode == 0, (proc.stdout + proc.stderr)[-3000:]

    defs, classes = source_defs()
    reached = set()
    unmatched = []
    for path, line, name in json.loads(out.read_text()):
        key = (path, line)
        if key in defs:
            reached.add(key)
        elif name not in NOT_DEFS and key not in classes:
            unmatched.append(f"{path}:{line} {name}")
    assert not unmatched, f"code objects that match no def: {unmatched}"

    sections = {
        line[3:].strip()
        for line in (ROOT / "docs" / "api.md").read_text(encoding="utf-8").splitlines()
        if line.startswith("## ")
    }
    allowed, problems = read_allowlist(sections)
    names = {f"{key[0]}::{qualname}": key for key, (qualname, _) in defs.items()}
    unreached = sorted(
        f"{key[0]}::{qualname}"
        for key, (qualname, outer) in defs.items()
        if key not in reached and (outer is None or outer in reached)
    )
    problems += [f"{name}: unreached and not allowlisted" for name in unreached if name not in allowed]
    for name in allowed:
        if name not in names:
            problems.append(f"{name}: allowlisted but no such function")
        elif names[name] in reached:
            problems.append(f"{name}: allowlisted but reached; drop the entry")
    assert not problems, "\n".join(problems)
