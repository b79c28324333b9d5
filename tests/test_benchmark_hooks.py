"""The traced benchmark run wraps functions by name; the names must exist.

``benchmarks/layers.py`` patches module attributes of ``dynident`` (for
example ``autodiff.adam_step`` and ``multiview.encode``).  A refactor that
renames or removes one would otherwise surface only as an AttributeError in
``benchmarks/run.py --trace 1``.  The benchmark files are imported as they
are, never edited.

Some names stay in ``src/`` only because ``layers.py`` patches them:
``autodiff.mlp_forward`` and ``autodiff.backward``, which no training,
evaluation or file code calls, and ``estimators.minimize``, which nothing
calls.  Moving the reference tape beside the tests therefore waits only on
a change to the benchmark.
"""

import importlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARKS = ROOT / "benchmarks"


def test_every_benchmark_module_imports_from_the_package():
    """``selftest.py`` imports ``workloads``, ``checks``, ``layers``, ``run``
    and ``steadiness``, so a name that one of them imports from ``dynident``
    and that the package no longer has fails here."""
    done = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, 'benchmarks'); import selftest"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_traced_run_patches_only_names_that_exist_and_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    saved = {name: sys.modules.pop(name, None) for name in ("tracing", "layers")}
    try:
        tracing = importlib.import_module("tracing")
        layers = importlib.import_module("layers")
        tracer = tracing.Tracer("tier-1")
        try:
            layers.install(tracer)
            patched = list(tracer._patches)
            assert patched
        finally:
            tracer.unpatch()
        for owner, attr, original in patched:
            assert getattr(owner, attr) is original, attr
    finally:
        for name, module in saved.items():
            sys.modules.pop(name, None)
            if module is not None:
                sys.modules[name] = module
