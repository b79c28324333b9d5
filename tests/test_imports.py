"""Every module of the package uses what it imports, and importing the CLI
loads nothing beyond numpy and the parts of scipy the package uses.

``__init__.py`` is left out of the first check: its imports are the public
re-exports.  An import kept on purpose carries ``# noqa: F401`` on its line.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dynident"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(path: Path) -> list[str]:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_the_package_has_modules_to_check():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert _unused_imports(path) == []


def _loaded_modules(statement: str) -> set[str]:
    code = f"import sys; {statement}; print('\\n'.join(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return set(run.stdout.split())


def test_the_cli_loads_no_module_beyond_numpy_and_scipy():
    """Start-up cost stays that of numpy and the scipy parts the package needs:
    a new module-level import elsewhere shows here."""
    baseline = _loaded_modules("import numpy, scipy.optimize, scipy.fft, scipy.linalg")
    extra = _loaded_modules("import dynident.cli") - baseline
    assert sorted(m for m in extra if m.split(".")[0] != "dynident") == []
