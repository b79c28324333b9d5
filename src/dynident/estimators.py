"""Parameter estimation for systems of known parametric form.

Three routes, in increasing generality and cost:

* ``fit_closed_form`` — ordinary least squares for fields linear in theta,
  regressing the flattened derivatives onto the stacked basis evaluations.
* ``fit_derivative_matching`` — Levenberg-Marquardt on the residual
  f(theta, x_t) - xdot_t; no integration in the loop, so it is fast and
  robust whenever derivatives are available or can be estimated.
* ``fit_trajectory_matching`` — Levenberg-Marquardt on the residual
  F(theta) - x (re-integrating the candidate parameters each evaluation),
  projected into the parameter box.  It starts once, from derivative
  matching's estimate: gradient matching, then trajectory matching (Varah
  1982; Ramsay et al. 2007).  The objective attains exactly zero at the
  generating parameters when evaluated on a trajectory produced by the same
  integrator settings.

There is one Levenberg-Marquardt implementation, a generator that yields
each point it needs residuals at together with the point's forward-difference
perturbations, so a candidate and the Jacobian there cost one evaluation.
A small lockstep loop runs many such solvers at once, evaluating the
pending points of all of them in one call; a single fit is that loop
applied to a batch of one.

``benchmark_rmse`` wraps any of these in the sampled-draw protocol: draw
parameters uniformly from the box, simulate, estimate, and report the mean
and standard deviation of ||theta_hat - theta||_2 / sqrt(N) per system.
Trajectory matching runs every draw of a system in lockstep, one
``integrate_batch`` call per round, each draw from its own
derivative-matching start.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Optional, Sequence

import numpy as np
from scipy.optimize import minimize  # noqa: F401 -- unused; benchmarks/layers.py patches it

from .errors import (
    EstimationFailureError,
    IllConditionedError,
    InvalidArgumentError,
    UnsupportedOperationError,
)
from .seeding import substream
from .solver import TimeGrid, Trajectory, estimate_derivatives, integrate_batch
from .systems import OdeSystem, basis_matrix, get_system, sample_parameters

METHOD_CLOSED = "closed"
METHOD_DERIV = "deriv"
METHOD_TRAJ = "traj"
METHODS = (METHOD_CLOSED, METHOD_DERIV, METHOD_TRAJ)

#: Gram matrices with a condition number beyond this are refused.
_COND_LIMIT = 1e12

#: Levenberg-Marquardt's iteration cap and starting damping.
_LM_MAX_ITER = 100
_LM_LAM0 = 1e-3
#: An accepted step converges when it moves theta by less than
#: _LM_STEP_TOL relative to |theta| or cuts the loss by less than
#: _LM_DECREASE_TOL relative to the loss.
_LM_STEP_TOL = 1e-10
_LM_DECREASE_TOL = 1e-12


@dataclass
class FitResult:
    """Outcome of a single estimation run."""

    theta_hat: np.ndarray
    loss_final: float
    method: str
    iterations: int
    converged: bool


@dataclass
class EstimateReport:
    """Aggregate accuracy of one (system, method) benchmark cell.

    ``rmse_mean``/``rmse_std`` are over the successful draws; ``n_failures``
    counts draws whose simulation diverged or whose fit raised.  ``rmse_std``
    uses the population convention (a single draw reports 0).
    """

    system_id: str
    method: str
    n_draws: int
    noise: float
    rmse_mean: float
    rmse_std: float
    n_failures: int


# ---------------------------------------------------------------------------
# Levenberg-Marquardt.
# ---------------------------------------------------------------------------


def _levenberg_marquardt(
    theta0: np.ndarray,
    *,
    project: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> Generator[np.ndarray, list, tuple[np.ndarray, float, int, bool]]:
    """Minimize ||r(theta)||^2 with damped Gauss-Newton steps.

    A generator: whenever it needs residuals it yields an (N+1, N) block
    holding the point (the start or a candidate) followed by its N
    forward-difference perturbations, and expects the residuals of those
    rows sent back, None marking an infeasible row (e.g. a diverged
    integration); infeasible candidates are rejected.  The Jacobian at a
    candidate thus arrives with the candidate itself and goes unused if the
    candidate is rejected.  Damping follows the classic schedule: multiply by
    10 on rejection, divide by 10 on acceptance, starting from 1e-3; at most
    100 iterations run.  Returns ``(theta, loss, iterations, converged)``; run it with
    :func:`_run_lockstep`.
    """

    def _project(th):
        return project(th) if project is not None else th

    def _block(th):
        h = 1e-7 * np.maximum(1.0, np.abs(th))
        return h, th + np.eye(th.size + 1, th.size, k=-1) * h

    theta = _project(np.asarray(theta0, dtype=float).copy())
    h, block = _block(theta)
    rows = yield block
    r = rows[0]
    if r is None:
        return theta, np.inf, 0, False
    loss = float(r @ r)
    lam = _LM_LAM0
    n_params = theta.size

    for iteration in range(1, _LM_MAX_ITER + 1):
        jac = np.zeros((r.size, n_params))
        for i, rp in enumerate(rows[1:]):
            if rp is not None:
                jac[:, i] = (rp - r) / h[i]

        grad = jac.T @ r
        if np.linalg.norm(grad) <= 1e-14 * (1.0 + loss):
            return theta, loss, iteration, True

        hess = jac.T @ jac
        damp = np.maximum(np.diag(hess), 1e-12)

        accepted = False
        while lam <= 1e10:
            try:
                step = np.linalg.solve(hess + lam * np.diag(damp), -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            candidate = _project(theta + step)
            h_new, block = _block(candidate)
            rows_new = yield block
            r_new = rows_new[0]
            loss_new = np.inf if r_new is None else float(r_new @ r_new)
            if loss_new <= loss:
                actual_step = candidate - theta
                rel_step = np.linalg.norm(actual_step) / (1.0 + np.linalg.norm(theta))
                rel_decrease = (loss - loss_new) / max(loss, 1e-300)
                theta, r, loss, h, rows = candidate, r_new, loss_new, h_new, rows_new
                lam = max(lam / 10.0, 1e-12)
                accepted = True
                if rel_step < _LM_STEP_TOL or rel_decrease < _LM_DECREASE_TOL:
                    return theta, loss, iteration, True
                break
            lam *= 10.0
        if not accepted:
            return theta, loss, iteration, False

    return theta, loss, _LM_MAX_ITER, False


def _run_lockstep(
    solvers: Sequence[Generator],
    evaluate: Callable[[list[int], list[np.ndarray]], list[list]],
) -> list[tuple[np.ndarray, float, int, bool]]:
    """Run :func:`_levenberg_marquardt` generators together.

    Each round collects the pending block of every unfinished solver and
    hands them to ``evaluate(indices, blocks)`` in one call, which returns
    the residuals of each block; each solver then gets its own back.
    Returns the solvers' results in order.
    """
    results: list = [None] * len(solvers)
    pending: dict[int, np.ndarray] = {}

    def advance(i, rows):
        try:
            pending[i] = solvers[i].send(rows)
        except StopIteration as stop:
            results[i] = stop.value

    for i in range(len(solvers)):
        advance(i, None)
    while pending:
        indices = list(pending)
        blocks = [pending.pop(i) for i in indices]
        for i, rows in zip(indices, evaluate(indices, blocks)):
            advance(i, rows)
    return results


# ---------------------------------------------------------------------------
# Fit routines.
# ---------------------------------------------------------------------------


def _check_trajectory(system: OdeSystem, trajectory: Trajectory) -> None:
    if trajectory.states.shape[1] != system.state_dim:
        raise InvalidArgumentError(
            f"trajectory state dimension {trajectory.states.shape[1]} does not match "
            f"{system.id} (d = {system.state_dim})"
        )


def _target_derivatives(trajectory: Trajectory, derivs: Optional[np.ndarray]) -> np.ndarray:
    if derivs is not None:
        derivs = np.asarray(derivs, dtype=float)
        if derivs.shape != trajectory.states.shape:
            raise InvalidArgumentError("derivs shape must match trajectory states")
        return derivs
    if trajectory.derivs is not None:
        return trajectory.derivs
    return estimate_derivatives(trajectory)


def fit_closed_form(
    system: OdeSystem,
    trajectory: Trajectory,
    derivs: Optional[np.ndarray] = None,
) -> FitResult:
    """Least-squares estimate for fields linear in theta.

    Solves min_theta ||Phi^T theta - xdot||^2 where row i of Phi holds the
    basis function phi_i(x) = f(e_i, x) evaluated along the trajectory
    (flattened time-major); see :func:`basis_matrix`.
    Raises :class:`UnsupportedOperationError` when the system is not declared
    linear and :class:`IllConditionedError` when the Gram matrix has condition
    number above 1e12.
    """
    _check_trajectory(system, trajectory)
    xdot = _target_derivatives(trajectory, derivs).reshape(-1)
    phi = basis_matrix(system, trajectory.states)  # (N, T*d)
    gram = phi @ phi.T
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise IllConditionedError(
            f"{system.id}: basis Gram matrix condition {cond:.3g} exceeds {_COND_LIMIT:.0e}"
        )
    theta_hat = np.linalg.solve(gram, phi @ xdot)
    resid = phi.T @ theta_hat - xdot
    return FitResult(
        theta_hat=theta_hat,
        loss_final=float(resid @ resid),
        method=METHOD_CLOSED,
        iterations=0,
        converged=True,
    )


def fit_derivative_matching(
    system: OdeSystem,
    trajectory: Trajectory,
    theta0: Optional[np.ndarray] = None,
    derivs: Optional[np.ndarray] = None,
) -> FitResult:
    """Regress the parametric field onto observed derivatives.

    Minimizes sum_t ||f(theta, x_t) - xdot_t||^2 by Levenberg-Marquardt
    starting from the parameter-box midpoint.  No integration is performed,
    so cost per iteration is a handful of vectorized field evaluations.
    """
    _check_trajectory(system, trajectory)
    target = _target_derivatives(trajectory, derivs)
    target_flat = target.reshape(-1)
    states = trajectory.states
    start = system.param_midpoint if theta0 is None else np.asarray(theta0, dtype=float)

    def evaluate(indices, blocks):
        thetas = blocks[0]
        with np.errstate(all="ignore"):
            pred = system.field(thetas[:, None, :], states).reshape(len(thetas), -1)
        finite = np.isfinite(pred).all(axis=1)
        diff = pred - target_flat
        return [[d if ok else None for d, ok in zip(diff, finite)]]

    [(theta_hat, loss, iters, converged)] = _run_lockstep(
        [_levenberg_marquardt(start)], evaluate
    )
    return FitResult(theta_hat, loss, METHOD_DERIV, iters, converged)


def _trajectory_start(system: OdeSystem, trajectory: Trajectory) -> np.ndarray:
    """Where trajectory matching starts: derivative matching's estimate,
    clipped into the system's box.

    Derivative matching uses the trajectory's own ``derivs`` when it has
    them and finite differences when it does not.  When neither is possible
    (no ``derivs``, and a non-uniform grid or fewer than 3 points) the start
    is the box midpoint.
    """
    midpoint = system.param_midpoint
    try:
        derivs = _target_derivatives(trajectory, None)
    except InvalidArgumentError:
        return midpoint
    fit = fit_derivative_matching(system, trajectory, theta0=midpoint, derivs=derivs)
    return np.clip(fit.theta_hat, system.param_lo, system.param_hi)


def _fit_trajectories(
    system: OdeSystem,
    trajectories: Sequence[Trajectory],
    starts: Sequence[np.ndarray],
) -> list[Optional[FitResult]]:
    """Trajectory matching of several trajectories on one grid, in lockstep.

    One Levenberg-Marquardt solver per trajectory, projected into the box
    and run once from its start; every round integrates the pending blocks
    of all of them in a single :func:`integrate_batch` call, each row from
    its own trajectory's first state.  Rows never mix, so each fit is
    exactly what it would be alone.  A fit whose start diverges comes back
    as None.
    """
    if not trajectories:
        return []
    grid = trajectories[0].grid
    obs_flat = [t.states.reshape(-1) for t in trajectories]
    x0s = np.stack([t.states[0] for t in trajectories])

    def project(theta):
        return np.clip(theta, system.param_lo, system.param_hi)

    def evaluate(indices, blocks):
        sizes = [b.shape[0] for b in blocks]
        states, _, ok, _ = integrate_batch(
            system, np.concatenate(blocks), np.repeat(x0s[indices], sizes, axis=0), grid
        )
        out, row = [], 0
        for i, n in zip(indices, sizes):
            out.append([
                states[k].reshape(-1) - obs_flat[i] if ok[k] else None
                for k in range(row, row + n)
            ])
            row += n
        return out

    solvers = [_levenberg_marquardt(s, project=project) for s in starts]
    return [
        FitResult(theta_hat, loss, METHOD_TRAJ, iters, converged) if np.isfinite(loss) else None
        for theta_hat, loss, iters, converged in _run_lockstep(solvers, evaluate)
    ]


def fit_trajectory_matching(
    system: OdeSystem,
    trajectory: Trajectory,
    theta0: Optional[np.ndarray] = None,
) -> FitResult:
    """Match the simulated path to the observed one.

    Minimizes ||F(theta) - x||^2 over the system's parameter box, where F
    integrates the candidate parameters from the trajectory's first state
    over its own grid.  Levenberg-Marquardt, projected into the box, runs
    once from ``theta0``; by default from derivative matching's estimate
    clipped into the box, or from the box midpoint when the trajectory has
    no ``derivs`` and finite differences cannot be taken.  Candidates whose integration
    diverges are rejected; if the start itself diverges an
    :class:`EstimationFailureError` is raised.
    """
    _check_trajectory(system, trajectory)
    if theta0 is None:
        start = _trajectory_start(system, trajectory)
    else:
        start = np.asarray(theta0, dtype=float)
    [fit] = _fit_trajectories(system, [trajectory], [start])
    if fit is None:
        raise EstimationFailureError(
            f"{system.id}: the start's integration diverged; no estimate available"
        )
    return fit


# ---------------------------------------------------------------------------
# Sampled-draw benchmark.
# ---------------------------------------------------------------------------


def benchmark_rmse(
    system_ids: Sequence[str],
    n_draws: int,
    method: str,
    seed: int,
    *,
    noise: float = 0.0,
    grid_points: int = 100,
) -> list[EstimateReport]:
    """Run the sampled-draw estimation protocol over catalog systems.

    For each system: draw ``n_draws`` parameter vectors uniformly from its
    box, integrate from the canonical initial condition, optionally corrupt
    the states with i.i.d. Gaussian noise of standard deviation ``noise``
    (derivatives are then re-estimated numerically), fit with ``method`` and
    record ||theta_hat - theta||_2 / sqrt(N) per draw.  Draws whose
    simulation diverges or whose fit raises count as failures and are
    excluded from the mean/std.

    Everything is a pure function of the arguments: the same call returns
    identical reports.  Closed and deriv fits run one draw
    after another; trajectory matching fits all draws of a system in
    lockstep.
    """
    if method not in METHODS:
        raise InvalidArgumentError(f"unknown method {method!r}; expected one of {METHODS}")
    if n_draws < 1:
        raise InvalidArgumentError("benchmark_rmse: n_draws must be >= 1")
    if noise < 0:
        raise InvalidArgumentError("benchmark_rmse: noise must be >= 0")

    reports = []
    for sid in system_ids:
        system = get_system(sid)
        if method == METHOD_CLOSED and not system.linear:
            raise UnsupportedOperationError(
                f"{system.id}: closed-form estimation requires a field linear in theta"
            )
        draws = sample_parameters(system, n_draws, seed)
        thetas = np.stack([d.theta for d in draws])
        grid = TimeGrid.uniform(0.0, system.t_max, grid_points)
        states_b, derivs_b, ok, _ = integrate_batch(system, thetas, system.x0, grid)

        noise_rng = substream(seed, "noise", system.id)
        noise_draws = (
            noise * noise_rng.standard_normal(states_b.shape) if noise > 0 else None
        )

        def trajectory(i: int) -> Trajectory:
            if noise_draws is None:
                return Trajectory(system.id, grid, states_b[i], derivs=derivs_b[i])
            traj = Trajectory(system.id, grid, states_b[i] + noise_draws[i])
            traj.derivs = estimate_derivatives(traj)
            return traj

        def rmse(i: int, fit: Optional[FitResult]) -> Optional[float]:
            if fit is None:
                return None
            return float(np.linalg.norm(fit.theta_hat - thetas[i]) / np.sqrt(system.param_dim))

        if method == METHOD_TRAJ:
            simulable = [i for i in range(n_draws) if ok[i]]
            trajs = [trajectory(i) for i in simulable]
            starts = [_trajectory_start(system, t) for t in trajs]
            fits = dict(zip(simulable, _fit_trajectories(system, trajs, starts)))
            results = [rmse(i, fits.get(i)) for i in range(n_draws)]
        else:
            fit_fn = fit_closed_form if method == METHOD_CLOSED else fit_derivative_matching

            def fit_one(i: int) -> Optional[float]:
                if not ok[i]:
                    return None
                try:
                    return rmse(i, fit_fn(system, trajectory(i)))
                except (IllConditionedError, EstimationFailureError):
                    return None

            results = [fit_one(i) for i in range(n_draws)]

        rmses = np.array([r for r in results if r is not None])
        n_failures = sum(1 for r in results if r is None)
        reports.append(
            EstimateReport(
                system_id=system.id,
                method=method,
                n_draws=n_draws,
                noise=noise,
                rmse_mean=float(rmses.mean()) if rmses.size else float("nan"),
                rmse_std=float(rmses.std()) if rmses.size else float("nan"),
                n_failures=n_failures,
            )
        )
    return reports
