"""The traced benchmark run wraps functions by name; the names must exist.

``benchmarks/layers.py`` patches module attributes of ``dynident`` (for
example ``autodiff.adam_step`` and ``multiview.encode``).  A refactor that
renames or removes one would otherwise surface only as an AttributeError in
``benchmarks/run.py --trace 1``.  The benchmark files are imported as they
are, never edited.
"""

import importlib
import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


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
