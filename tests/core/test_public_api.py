"""The documented public API resolves.

Three checks keep names from going stale when code is deleted or moved:
every name a ``repro`` module lists in ``__all__`` is an attribute of
that module, every ``from repro... import ...`` in the python code
blocks of ``docs/api.md`` and ``README.md`` imports, and every
backticked dotted ``repro.…`` name in ``docs/*.md`` and ``README.md``
prose names a module or an attribute.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[2]

# ``python -m repro`` runs the CLI on import.
_SKIP = {"repro.__main__"}


def _modules():
    names = ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        if info.name not in _SKIP
    ]
    return [importlib.import_module(name) for name in sorted(names)]


def test_every_all_name_resolves():
    missing = [
        f"{module.__name__}.{name}"
        for module in _modules()
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert not missing, missing


_PYTHON_BLOCK = re.compile(r"```python\n(.*?)```", re.S)
_IMPORT = re.compile(r"^\s*from\s+(repro[\w.]*)\s+import\s+(\([^)]*\)|[^\n]*)", re.M)


def _documented_imports(path):
    """(module, name) for each ``from repro... import name`` in python blocks."""
    pairs = []
    for block in _PYTHON_BLOCK.findall(path.read_text()):
        for module, names in _IMPORT.findall(block):
            lines = (line.split("#", 1)[0] for line in names.strip("()").splitlines())
            for item in ",".join(lines).split(","):
                name = item.split(" as ")[0].strip()
                if name:
                    pairs.append((module, name))
    return pairs


def _resolves(module, name):
    """Whether ``from module import name`` succeeds (``__import__`` loads
    a submodule named in ``fromlist``, as the statement does)."""
    try:
        return hasattr(__import__(module, fromlist=[name]), name)
    except ImportError:
        return False


@pytest.mark.parametrize("doc", ["docs/api.md", "README.md"])
def test_documented_imports_resolve(doc):
    pairs = _documented_imports(ROOT / doc)
    assert pairs, f"no repro imports found in {doc}"
    missing = [f"{module}.{name}" for module, name in pairs if not _resolves(module, name)]
    assert not missing, missing


_DOTTED = re.compile(r"`(repro(?:\.\w+)+)")
_PROSE_DOCS = sorted(str(path.relative_to(ROOT)) for path in (ROOT / "docs").glob("*.md")) + [
    "README.md"
]


def _names_something(dotted):
    """Whether ``dotted`` is a module, or attributes under the longest
    importable module prefix of it."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


@pytest.mark.parametrize("doc", _PROSE_DOCS)
def test_prose_names_resolve(doc):
    names = sorted(set(_DOTTED.findall((ROOT / doc).read_text())))
    missing = [name for name in names if not _names_something(name)]
    assert not missing, missing
