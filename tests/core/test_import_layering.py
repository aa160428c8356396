"""Importing a module loads only that module and what it needs.

Shared package ``__init__``s resolve their names on first access, so a
constants module or the CLI's parser loads no cost model and no numpy;
the leaf packages ``repro.montecarlo`` and ``repro.calibration`` load
their entry modules when imported, so an import loads exactly the
modules its calls then run, none deferred to the first call.  Each check
runs in a fresh interpreter, since this test process has imported
everything already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )


def _modules_after(script: str) -> list:
    """The ``sys.modules`` lists a fresh process prints as JSON lines."""
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_help_imports_no_numpy():
    proc = _python("-X", "importtime", "-m", "repro", "--help")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "usage:" in proc.stdout
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
    assert "repro.cli" in imported
    assert not [name for name in imported if name.split(".")[0] == "numpy"]


@pytest.mark.parametrize("module", ["repro.model.transformer", "repro.core.units"])
def test_a_leaf_module_loads_only_its_own_package(module):
    (loaded,) = _modules_after(
        f"import json, sys\nimport {module}\nprint(json.dumps(sorted(sys.modules)))"
    )
    package = module.rsplit(".", 1)[0]
    outside = [
        name
        for name in loaded
        if name.split(".")[0] == "repro"
        and name not in ("repro", package)
        and not name.startswith(package + ".")
    ]
    assert module in loaded
    assert not outside, outside
    assert "numpy" not in loaded


_ENTRY_CALLS = {
    "repro.montecarlo": """
for scenario in ("chaos", "scheduler"):
    repro.montecarlo.run_campaign(scenario, seeds=[0], weeks=0.05)
""",
    "repro.calibration": """
anchors = repro.calibration.load_anchors(repro.calibration.default_fixture_dir())
for system in sorted({anchor.system for anchor in anchors}):
    repro.calibration.predict_anchor(next(a for a in anchors if a.system == system))
""",
    "repro.parallel.search": """
from repro.model.transformer import GPT_13B
for backend in ("analytic", "fabric"):
    repro.parallel.search.search_plans(GPT_13B, 16, 64, top_k=2, backend=backend)
""",
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_CALLS))
def test_an_entry_import_loads_what_its_calls_run(entry):
    """No module an entry point's calls need is left to the first call."""
    snapshot = "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'repro')))"
    imported, called = _modules_after(
        f"import json, sys\nimport {entry}\n{snapshot}\n{_ENTRY_CALLS[entry]}\n{snapshot}"
    )
    assert entry in imported
    assert called == imported, sorted(set(called) ^ set(imported))


def test_megascale_stays_the_factory_after_every_module_is_imported():
    """``repro.core.megascale`` names the factory, never a module."""
    (callable_,) = _modules_after(
        "import importlib, json, pkgutil\n"
        "import repro, repro.core\n"
        "for info in pkgutil.walk_packages(repro.__path__, prefix='repro.'):\n"
        "    if info.name != 'repro.__main__':\n"
        "        importlib.import_module(info.name)\n"
        "print(json.dumps([callable(repro.megascale), callable(repro.core.megascale),"
        " repro.megascale is repro.core.megascale]))"
    )
    assert callable_ == [True, True, True]
