"""The demos run to the end and print what they are there to show.

Each demo runs as its own process, as a reader would run it, and must exit 0
and print the one line that proves it did its work.  The partial
identification demo trains an identifier for 600 epochs and takes about
5–7 s on one core; the other three take a few seconds together.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo, proof",
    [
        ("known_form_identification.py", "| system | draws |"),
        ("causal_probes.py", "recovered change ratios:"),
        ("solver_preprocessing.py", "ratios between successive halvings:"),
        ("partial_identification.py", "cross-view alignment ratio"),
    ],
)
def test_demo_runs_and_prints_its_result(demo, proof):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert proof in run.stdout, run.stdout
