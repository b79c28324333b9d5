"""Correctness checks made on every benchmark run, outside the timed part.

Each check compares the program's output with a computation made apart from
it (``scipy.integrate.solve_ivp``, ``hashlib``) or with a property the
method must have (noise-free data makes the truth an exact zero of every
estimator's objective; training lowers the loss it minimises).  None of them
compares against a stored copy of earlier output.

The ``check_*`` functions return a list of failure messages, empty when
the check passes, so callers can report all failures of a run at once.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np
from scipy.integrate import solve_ivp

#: Relative tolerance of fixed-step RK4 states against DOP853 at rtol 1e-12.
SOLVER_RTOL = 1e-6


def worst_draw_error(report) -> float:
    """Upper bound on the largest per-draw RMSE behind an ``EstimateReport``.

    Reports keep only the mean and the population standard deviation of the
    successful draws; for n values, max <= mean + std * sqrt(n - 1)
    (Samuelson's inequality), so a bound below the tolerance proves that
    every draw is within it.
    """
    n_ok = report.n_draws - report.n_failures
    if n_ok == 0:
        return 0.0
    return report.rmse_mean + report.rmse_std * math.sqrt(n_ok - 1)


def failed_draws(report, tol: float) -> int:
    """Draws that diverged, raised, or cannot be shown to be within ``tol``.

    When the bound of :func:`worst_draw_error` exceeds ``tol`` the report
    does not say which draws missed, so every draw of the cell counts.
    """
    bound = worst_draw_error(report)
    if not math.isfinite(bound) or bound > tol:
        return report.n_draws
    return report.n_failures


def solver_deviation(system, thetas, x0s, grid, states) -> float:
    """Largest deviation of ``states`` (B, T, d) from DOP853, relative to scale."""
    worst = 0.0
    for theta, x0, got in zip(thetas, x0s, states):
        ref = solve_ivp(
            lambda _t, x: system.field(theta, x),
            (grid.t0, grid.t_max),
            x0,
            method="DOP853",
            t_eval=grid.points,
            rtol=1e-12,
            atol=1e-12,
        )
        if not ref.success:
            return math.inf
        want = ref.y.T
        worst = max(worst, float(np.max(np.abs(got - want)) / (1.0 + np.max(np.abs(want)))))
    return worst


def check_dataset(dataset, system, sample) -> tuple[list, float]:
    """Shared parameters identical across views, every theta in the box, and
    the trajectories of pairs ``sample`` equal to DOP853 from the stored
    (theta, x0).  Returns the failures and the largest solver deviation."""
    failures = []
    shared = list(dataset.shared_param_indices)
    for v in range(1, dataset.n_views):
        if not np.array_equal(dataset.thetas[v][:, shared], dataset.thetas[0][:, shared]):
            failures.append(f"dataset: theta_S of view {v} differs from view 0")
    inside = (dataset.thetas >= system.param_lo) & (dataset.thetas <= system.param_hi)
    if not np.all(inside):
        failures.append(f"dataset: {int(np.sum(~inside))} theta entries outside the box")
    worst = 0.0
    for v in range(dataset.n_views):
        dev = solver_deviation(
            system,
            dataset.thetas[v][sample],
            dataset.x0s[v][sample],
            dataset.grid,
            dataset.states[v][sample],
        )
        if dev > SOLVER_RTOL:
            failures.append(
                f"dataset: view {v} trajectories deviate from DOP853 by {dev:.2e}"
            )
        worst = max(worst, dev)
    return failures, worst


def check_manifest(manifest_path) -> list:
    """Every digest in a manifest equals the SHA-256 of the file it names."""
    with open(manifest_path) as fh:
        doc = json.load(fh)
    folder = os.path.dirname(manifest_path)
    failures = []
    if not doc.get("outputs"):
        failures.append(f"{os.path.basename(manifest_path)}: lists no outputs")
    for name, digest in doc.get("outputs", {}).items():
        with open(os.path.join(folder, name), "rb") as fh:
            actual = hashlib.sha256(fh.read()).hexdigest()
        if actual != digest:
            failures.append(f"{os.path.basename(manifest_path)}: digest of {name} does not match")
    return failures


def read_eval_report(path) -> dict:
    """The eval CSV as {(section, row, col): value}."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {(r["section"], r["row"], r["col"]): float(r["value"]) for r in rows}


def check_eval_report(path, n_pairs: int) -> list:
    """Accuracies in [0, 1], shared-block R² above the private block's, and
    each ATE slice holding half the pairs."""
    try:
        report = read_eval_report(path)
    except (OSError, KeyError, ValueError) as exc:
        return [f"eval report does not parse: {exc}"]
    failures = []
    acc = [v for (s, _, _), v in report.items() if s == "accuracy"]
    if not acc or not all(0.0 <= v <= 1.0 for v in acc):
        failures.append("eval: an accuracy lies outside [0, 1]")
    r2_shared = report.get(("r2", "block0", "theta_S"), math.nan)
    r2_private = report.get(("r2", "block1", "theta_S"), math.nan)
    if not r2_shared > r2_private:
        failures.append(
            f"eval: shared-block R² {r2_shared:.3f} does not exceed the private block's {r2_private:.3f}"
        )
    for name in ("slice0", "slice1"):
        n = report.get(("ate", name, "n"))
        if n != n_pairs // 2:
            failures.append(f"eval: ATE {name} holds {n} rows, expected {n_pairs // 2}")
    return failures
