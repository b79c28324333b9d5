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

There is one Levenberg-Marquardt implementation, and it fits many problems
at once.  Each round, every unfinished problem evaluates one block, its
candidate followed by the candidate's forward-difference perturbations, so
a candidate and the Jacobian there cost one evaluation; the blocks of all
problems go into a single residual call.  Every per-problem reduction is a
stacked ``matmul`` or ``linalg.solve``, so a problem's iterates do not
depend on what else is in the batch, and a single fit is a batch of one.

``benchmark_rmse`` wraps any of these in the sampled-draw protocol: draw
parameters uniformly from the box, simulate, estimate, and report the mean
and standard deviation of ||theta_hat - theta||_2 / sqrt(N) per system.
It fits all simulable draws of a system at once: closed form as one stack
of least-squares solves, derivative matching as one Levenberg-Marquardt run
with one field call per round, and trajectory matching as one run with one
``integrate_batch`` call per round, started from one batched
derivative-matching run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

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


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (K, n) stacks, by stacked matmul."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _damped_steps(
    hess: np.ndarray, grad: np.ndarray, damp: np.ndarray, lam: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Solve (H + lam diag(damp)) step = -grad for a stack of problems.

    Returns the steps and a mask of the problems whose damped matrix LAPACK
    found singular; their steps are undefined.  One singular matrix fails
    the stacked solve, so the stack is then solved one problem at a time.
    """
    a = hess.copy()
    diag = np.arange(hess.shape[1])
    a[:, diag, diag] += lam[:, None] * damp
    b = -grad[:, :, None]
    try:
        return np.linalg.solve(a, b)[:, :, 0], np.zeros(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    steps = np.zeros(grad.shape)
    singular = np.zeros(len(a), dtype=bool)
    for k in range(len(a)):
        try:
            steps[k] = np.linalg.solve(a[k : k + 1], b[k : k + 1])[0, :, 0]
        except np.linalg.LinAlgError:
            singular[k] = True
    return steps, singular


def _levenberg_marquardt(
    starts: np.ndarray,
    residuals: Callable[[np.ndarray, np.ndarray], np.ndarray],
    *,
    project: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Minimize ||r_k(theta)||^2 with damped Gauss-Newton steps, for K
    problems at once.

    ``starts`` is a (K, N) array.  ``residuals(owner, thetas)`` gets (M, N)
    points, ``owner[m]`` naming the problem that row m belongs to, and
    returns their (M, R) residuals; a NaN row marks an infeasible point
    (e.g. a diverged integration).  Each round, every unfinished problem
    evaluates one block: its point (the start or a candidate) followed by
    the point's N forward-difference perturbations, so a candidate and the
    Jacobian there cost one evaluation, and the blocks of all problems go
    into one ``residuals`` call.  An infeasible perturbation gives a zero
    Jacobian column and an infeasible candidate is rejected; a problem whose
    start is infeasible stops with infinite loss.

    Damping follows the classic schedule: it starts at 1e-3, is multiplied
    by 10 on a rejection or a singular damped solve (which evaluates
    nothing) and divided by 10 on an acceptance; a problem gives up once it
    exceeds 1e10, and at most 100 iterations run.  Every reduction is a
    stacked ``matmul`` or ``linalg.solve``, so each problem's iterates are
    the same bits whatever else is in the batch.  Returns ``(theta, loss,
    iterations, converged)`` as arrays over the K problems.
    """
    clip = project if project is not None else (lambda th: th)
    theta = clip(np.array(starts, dtype=float))
    n_problems, n_params = theta.shape

    def evaluate(owners, points):
        """Feasibility of and loss at each point, and the normal equations there."""
        h = 1e-7 * np.maximum(1.0, np.abs(points))
        block = points[:, None, :] + np.eye(n_params + 1, n_params, k=-1) * h[:, None, :]
        rows = residuals(np.repeat(owners, n_params + 1), block.reshape(-1, n_params))
        rows = rows.reshape(len(owners), n_params + 1, -1)
        feasible = ~np.isnan(rows).any(axis=2)
        loss = np.where(feasible[:, 0], _dot(rows[:, 0], rows[:, 0]), np.inf)
        # Each problem's Jacobian is a C-ordered (R, N) matrix.  BLAS sums in
        # an order that depends on the layout, and this one keeps the
        # estimates of earlier releases bit for bit.
        jac = np.empty((len(owners), rows.shape[2], n_params))
        jac_t = jac.transpose(0, 2, 1)
        with np.errstate(all="ignore"):
            np.subtract(rows[:, 1:], rows[:, :1], out=jac_t)
            jac_t /= h[:, :, None]
        jac_t[~feasible[:, 1:]] = 0.0
        grad = (jac_t @ rows[:, 0, :, None])[:, :, 0]
        return feasible[:, 0], loss, grad, jac_t @ jac

    feasible, loss, grad, hess = evaluate(np.arange(n_problems), theta)
    iterations = np.zeros(n_problems, dtype=int)
    converged = np.zeros(n_problems, dtype=bool)
    done = ~feasible
    fresh = ~done  # problems at a new point, whose gradient is not yet tested
    lam = np.full(n_problems, _LM_LAM0)
    candidate = np.zeros((n_problems, n_params))

    while True:
        new = np.flatnonzero(fresh)
        fresh[new] = False
        iterations[new] += 1
        at_rest = np.sqrt(_dot(grad[new], grad[new])) <= 1e-14 * (1.0 + loss[new])
        done[new[at_rest]] = converged[new[at_rest]] = True

        pending = np.flatnonzero(~done)
        while pending.size:
            given_up = lam[pending] > 1e10
            done[pending[given_up]] = True
            pending = pending[~given_up]
            damp = np.maximum(np.diagonal(hess[pending], axis1=1, axis2=2), 1e-12)
            steps, singular = _damped_steps(hess[pending], grad[pending], damp, lam[pending])
            solved = pending[~singular]
            candidate[solved] = clip(theta[solved] + steps[~singular])
            pending = pending[singular]
            lam[pending] *= 10.0

        active = np.flatnonzero(~done)
        if not active.size:
            break
        _, loss_new, grad_new, hess_new = evaluate(active, candidate[active])
        accept = loss_new <= loss[active]
        lam[active[~accept]] *= 10.0

        a = active[accept]
        step = candidate[a] - theta[a]
        rel_step = np.sqrt(_dot(step, step)) / (1.0 + np.sqrt(_dot(theta[a], theta[a])))
        rel_decrease = (loss[a] - loss_new[accept]) / np.maximum(loss[a], 1e-300)
        theta[a], loss[a] = candidate[a], loss_new[accept]
        grad[a], hess[a] = grad_new[accept], hess_new[accept]
        lam[a] = np.maximum(lam[a] / 10.0, 1e-12)
        small = (rel_step < _LM_STEP_TOL) | (rel_decrease < _LM_DECREASE_TOL)
        done[a[small]] = converged[a[small]] = True
        done[a[iterations[a] == _LM_MAX_ITER]] = True
        fresh[a[~done[a]]] = True

    return theta, loss, iterations, converged


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


def _closed_form_fits(
    system: OdeSystem, states: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form fits of K trajectories at once.

    ``states`` and ``targets`` (their derivatives) are (K, T, d) stacks.
    Returns ``(theta, loss, cond)`` over the K fits; a fit whose Gram
    matrix has a condition number above 1e12 (or not finite) is not solved
    and holds NaN.
    """
    phi = basis_matrix(system, states)  # (K, N, T*d)
    xdot = targets.reshape(len(targets), -1, 1)
    gram = phi @ phi.transpose(0, 2, 1)
    cond = np.linalg.cond(gram)
    good = cond <= _COND_LIMIT  # False for inf and NaN too
    theta = np.full((len(phi), system.param_dim), np.nan)
    theta[good] = np.linalg.solve(gram[good], (phi @ xdot)[good])[:, :, 0]
    resid = (phi.transpose(0, 2, 1) @ theta[:, :, None] - xdot)[:, :, 0]
    return theta, _dot(resid, resid), cond


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
    xdot = _target_derivatives(trajectory, derivs)
    [theta_hat], [loss], [cond] = _closed_form_fits(system, trajectory.states[None], xdot[None])
    if not cond <= _COND_LIMIT:
        raise IllConditionedError(
            f"{system.id}: basis Gram matrix condition {cond:.3g} exceeds {_COND_LIMIT:.0e}"
        )
    return FitResult(theta_hat, float(loss), METHOD_CLOSED, 0, True)


def _derivative_fits(
    system: OdeSystem, states: np.ndarray, targets: np.ndarray, starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Derivative matching of K trajectories at once, by one
    :func:`_levenberg_marquardt` run.

    ``states`` and ``targets`` are (K, T, d) stacks and ``starts`` is
    (K, N); each round makes one field call for the blocks of all fits.
    """
    flat = targets.reshape(len(targets), -1)

    def residuals(owner, thetas):
        with np.errstate(all="ignore"):
            diff = system.field(thetas[:, None, :], states[owner]).reshape(len(owner), -1)
            infeasible = ~np.isfinite(diff).all(axis=1)
            diff -= flat[owner]
        diff[infeasible] = np.nan
        return diff

    return _levenberg_marquardt(starts, residuals)


def fit_derivative_matching(
    system: OdeSystem,
    trajectory: Trajectory,
    theta0: Optional[np.ndarray] = None,
    derivs: Optional[np.ndarray] = None,
) -> FitResult:
    """Regress the parametric field onto observed derivatives.

    Minimizes sum_t ||f(theta, x_t) - xdot_t||^2 by Levenberg-Marquardt
    starting from ``theta0``, by default the parameter-box midpoint.  No
    integration is performed, so cost per iteration is one vectorized field
    evaluation at the candidate and its perturbations.
    """
    _check_trajectory(system, trajectory)
    target = _target_derivatives(trajectory, derivs)
    start = system.param_midpoint if theta0 is None else np.asarray(theta0, dtype=float)
    [theta_hat], [loss], [iters], [converged] = _derivative_fits(
        system, trajectory.states[None], target[None], start[None]
    )
    return FitResult(theta_hat, float(loss), METHOD_DERIV, int(iters), bool(converged))


def _trajectory_starts(system: OdeSystem, states: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Where trajectory matching starts: derivative matching's estimate from
    the box midpoint, clipped into the box, for a (K, T, d) stack."""
    midpoints = np.tile(system.param_midpoint, (len(states), 1))
    theta = _derivative_fits(system, states, targets, midpoints)[0]
    return np.clip(theta, system.param_lo, system.param_hi)


def _fit_trajectories(
    system: OdeSystem, grid: TimeGrid, observed: np.ndarray, starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Trajectory matching of K observed (T, d) paths on one grid at once.

    One :func:`_levenberg_marquardt` run, projected into the box, from
    ``starts`` (K, N); every round integrates the blocks of all fits in a
    single :func:`integrate_batch` call, each row from its own path's first
    state.  Rows never mix, so each fit is exactly what it would be alone.
    A fit whose start diverges ends with infinite loss.
    """
    obs_flat = observed.reshape(len(observed), -1)
    x0s = observed[:, 0]

    def project(theta):
        return np.clip(theta, system.param_lo, system.param_hi)

    def residuals(owner, thetas):
        states, _, ok, _ = integrate_batch(system, thetas, x0s[owner], grid)
        diff = states.reshape(len(owner), -1) - obs_flat[owner]
        diff[~ok] = np.nan
        return diff

    return _levenberg_marquardt(starts, residuals, project=project)


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
    observed = trajectory.states[None]
    if theta0 is not None:
        start = np.asarray(theta0, dtype=float)
    else:
        try:
            derivs = _target_derivatives(trajectory, None)
        except InvalidArgumentError:
            start = system.param_midpoint
        else:
            [start] = _trajectory_starts(system, observed, derivs[None])
    [theta_hat], [loss], [iters], [converged] = _fit_trajectories(
        system, trajectory.grid, observed, start[None]
    )
    if not np.isfinite(loss):
        raise EstimationFailureError(
            f"{system.id}: the start's integration diverged; no estimate available"
        )
    return FitResult(theta_hat, float(loss), METHOD_TRAJ, int(iters), bool(converged))


# ---------------------------------------------------------------------------
# Sampled-draw benchmark.
# ---------------------------------------------------------------------------


def _observe(
    system: OdeSystem, thetas: np.ndarray, grid: TimeGrid, noise: float, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simulate the draws ``thetas`` from the canonical initial condition.

    Returns the indices of the draws that did not diverge, their states
    with i.i.d. Gaussian noise of standard deviation ``noise`` added, and
    the derivatives to fit: exact without noise, finite differences of the
    noisy states with it.
    """
    states, derivs, ok, _ = integrate_batch(system, thetas, system.x0, grid)
    if noise > 0:
        states = states + noise * substream(seed, "noise", system.id).standard_normal(states.shape)
        derivs = np.array([estimate_derivatives(Trajectory(system.id, grid, x)) for x in states])
    simulable = np.flatnonzero(ok)
    return simulable, states[simulable], derivs[simulable]


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
    simulation diverges, whose closed-form Gram matrix is ill-conditioned or
    whose trajectory-matching start diverges count as failures and are
    excluded from the mean/std.

    Everything is a pure function of the arguments: the same call returns
    identical reports.  Each system's simulable draws are fitted at once:
    closed form as one stack of least-squares problems, derivative and
    trajectory matching as one Levenberg-Marquardt run (the trajectory fits
    starting from one derivative-matching run).  Every draw's estimate is
    the same as one public ``fit_*`` call on that draw alone.
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
        simulable, states, targets = _observe(system, thetas, grid, noise, seed)

        # A NaN row marks a failed draw.
        theta_hat = np.full(thetas.shape, np.nan)
        if simulable.size and method == METHOD_CLOSED:
            theta_hat[simulable] = _closed_form_fits(system, states, targets)[0]
        elif simulable.size and method == METHOD_DERIV:
            midpoints = np.tile(system.param_midpoint, (len(states), 1))
            theta_hat[simulable] = _derivative_fits(system, states, targets, midpoints)[0]
        elif simulable.size:
            starts = _trajectory_starts(system, states, targets)
            fitted, loss, _, _ = _fit_trajectories(system, grid, states, starts)
            fitted[~np.isfinite(loss)] = np.nan
            theta_hat[simulable] = fitted

        err = theta_hat - thetas
        rmse = np.sqrt(_dot(err, err)) / np.sqrt(system.param_dim)
        rmses = rmse[~np.isnan(rmse)]
        reports.append(
            EstimateReport(
                system_id=system.id,
                method=method,
                n_draws=n_draws,
                noise=noise,
                rmse_mean=float(rmses.mean()) if rmses.size else float("nan"),
                rmse_std=float(rmses.std()) if rmses.size else float("nan"),
                n_failures=int(rmse.size - rmses.size),
            )
        )
    return reports
