"""Every example script runs to completion.

Each ``examples/*.py`` runs in a fresh process inside its own temporary
directory, so the files it writes land under ``smoke-out/``, with small
arguments where the script takes them, and must exit 0.

Smoke-marked (deselected from tier-1); CI runs it with the other gates::

    PYTHONPATH=src python -m pytest -m smoke --basetemp=smoke-out
"""

import os
import subprocess
import sys

import pytest

from tests.smoke.entry_points import EXAMPLES, ROOT, SMALL_ARGS

pytestmark = pytest.mark.smoke


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(script), *SMALL_ARGS.get(script.name, [])],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    (tmp_path / "stdout.txt").write_text(proc.stdout)
    assert proc.returncode == 0, proc.stderr[-2000:]
