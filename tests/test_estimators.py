"""Closed-form, derivative-matching and trajectory-matching estimators."""

import numpy as np
import pytest

from dynident import (
    CATALOG,
    EstimationFailureError,
    IllConditionedError,
    InvalidArgumentError,
    TimeGrid,
    Trajectory,
    UnsupportedOperationError,
    estimate_derivatives,
    get_system,
    integrate,
    integrate_batch,
)
from dynident.estimators import (
    EstimateReport,
    benchmark_rmse,
    fit_closed_form,
    fit_derivative_matching,
    fit_trajectory_matching,
)
from dynident.seeding import substream
from dynident.systems import OdeSystem, sample_parameters


# --- closed form --------------------------------------------------------------


def test_closed_form_recovers_autocatalysis():
    """Exact derivatives, linear basis: recovery to 1e-8 or better."""
    s = get_system("ode6")
    truth = np.array([1.3, 1.8])
    traj = integrate(s, truth)
    res = fit_closed_form(s, traj)
    assert np.max(np.abs(res.theta_hat - truth)) <= 1e-8
    assert res.converged and res.iterations == 0


def test_closed_form_all_linear_systems():
    rng = np.random.default_rng(5)
    for sid in ["ode2", "ode5", "ode6", "ode27", "ode31", "ode63"]:
        s = get_system(sid)
        truth = s.param_lo + rng.random(s.param_dim) * (s.param_hi - s.param_lo)
        traj = integrate(s, truth)
        res = fit_closed_form(s, traj)
        assert np.max(np.abs(res.theta_hat - truth)) <= 1e-8, sid


def test_closed_form_requires_basis():
    s = get_system("ode56")
    traj = integrate(s, np.array([10.0, 28.0, 8.0 / 3.0]))
    with pytest.raises(UnsupportedOperationError):
        fit_closed_form(s, traj)


def test_closed_form_duplicate_basis_is_ill_conditioned():
    dup = OdeSystem(
        id="dup",
        name="duplicated basis function",
        field=lambda th, x: (th[..., 0:1] + th[..., 1:2]) * x,
        param_lo=np.array([0.5, 0.5]),
        param_hi=np.array([2.0, 2.0]),
        x0=[1.0],
        t_max=1.0,
        linear=True,
    )
    traj = integrate(dup, np.array([1.0, 1.0]), np.array([1.0]), TimeGrid.uniform(0, 1, 20))
    with pytest.raises(IllConditionedError):
        fit_closed_form(dup, traj)


# --- derivative matching --------------------------------------------------------


def test_derivative_matching_recovers_sir():
    """From the box midpoint with exact derivatives: error <= 1e-6."""
    s = get_system("ode31")
    truth = np.array([2.6, 0.8])
    traj = integrate(s, truth)
    res = fit_derivative_matching(s, traj)
    assert res.converged
    assert np.max(np.abs(res.theta_hat - truth)) <= 1e-6


def test_derivative_matching_converges_instantly_at_truth():
    s = get_system("ode31")
    truth = np.array([2.0, 1.0])
    traj = integrate(s, truth)
    res = fit_derivative_matching(s, traj, theta0=truth)
    assert res.converged
    assert res.iterations <= 2
    assert res.loss_final <= 1e-20


def test_derivative_matching_agrees_with_closed_form():
    for sid in ["ode2", "ode6", "ode31"]:
        s = get_system(sid)
        truth = s.param_midpoint * 1.1
        traj = integrate(s, truth)
        a = fit_closed_form(s, traj).theta_hat
        b = fit_derivative_matching(s, traj).theta_hat
        assert np.max(np.abs(a - b)) <= 1e-6, sid


def test_derivative_matching_rejects_single_point():
    s = get_system("ode2")
    grid = TimeGrid.uniform(0.0, 1.0, 2)
    bad = Trajectory(system_id="ode2", grid=grid, states=np.ones((2, 1)))
    # two points pass the floor; shrink to one by slicing states is impossible
    # through the constructor, so check the explicit validation instead
    with pytest.raises(InvalidArgumentError):
        fit_derivative_matching(s, bad)  # no derivs and T < 3 for estimation


def test_derivative_matching_from_estimated_derivatives():
    """Numerically estimated derivatives at h = 0.01 keep the error small."""
    s = get_system("ode6")
    truth = np.array([1.4, 0.7])
    grid = TimeGrid.uniform(0.0, s.t_max, int(s.t_max / 0.01) + 1)
    traj = integrate(s, truth, s.x0, grid)
    traj.derivs = None
    traj.derivs = estimate_derivatives(traj)
    res = fit_derivative_matching(s, traj)
    assert np.max(np.abs(res.theta_hat - truth)) <= 1e-3


# --- trajectory matching ---------------------------------------------------------


def test_trajectory_matching_recovers_logistic():
    s = get_system("ode3")
    truth = np.array([1.1, 2.7])
    traj = integrate(s, truth)
    res = fit_trajectory_matching(s, traj)
    assert np.max(np.abs(res.theta_hat - truth)) <= 1e-3
    assert np.all(res.theta_hat >= s.param_lo) and np.all(res.theta_hat <= s.param_hi)


def test_trajectory_matching_zero_loss_at_truth():
    """The objective vanishes at the generating parameters (same integrator)."""
    s = get_system("ode3")
    truth = np.array([1.0, 2.0])
    traj = integrate(s, truth)
    res = fit_trajectory_matching(s, traj, theta0=truth)
    assert res.loss_final <= 1e-10


def test_trajectory_matching_starts_at_the_midpoint_without_derivatives():
    """No derivs and a non-uniform grid, so no finite differences: the fit
    starts from the box midpoint instead of raising."""
    s = get_system("ode3")
    truth = np.array([1.1, 2.7])
    points = s.t_max * np.linspace(0.0, 1.0, 40) ** 2
    traj = integrate(s, truth, s.x0, TimeGrid(0.0, s.t_max, points))
    traj.derivs = None
    with pytest.raises(InvalidArgumentError):
        estimate_derivatives(traj)
    res = fit_trajectory_matching(s, traj)
    assert np.max(np.abs(res.theta_hat - truth)) <= 1e-3


def test_trajectory_matching_stays_in_the_catalog_box():
    s = get_system("ode3")
    truth = np.array([0.4, 0.8])
    assert np.all(truth < s.param_lo)  # the truth lies outside the box
    res = fit_trajectory_matching(s, integrate(s, truth))
    assert np.all(res.theta_hat >= s.param_lo) and np.all(res.theta_hat <= s.param_hi)


# --- benchmark -------------------------------------------------------------------


def test_benchmark_single_draw_has_zero_std():
    rep = benchmark_rmse(["ode2"], 1, "deriv", seed=3)[0]
    assert isinstance(rep, EstimateReport)
    assert rep.rmse_std == 0.0
    assert rep.n_failures == 0


def test_benchmark_deterministic_across_calls():
    a = benchmark_rmse(["ode6"], 8, "deriv", seed=5)[0]
    b = benchmark_rmse(["ode6"], 8, "deriv", seed=5)[0]
    assert a.rmse_mean == b.rmse_mean
    assert a.rmse_std == b.rmse_std


def test_benchmark_closed_form_on_nonlinear_system_rejected():
    with pytest.raises(UnsupportedOperationError):
        benchmark_rmse(["ode56"], 2, "closed", seed=1)


def test_benchmark_unknown_method_rejected():
    with pytest.raises(InvalidArgumentError):
        benchmark_rmse(["ode2"], 2, "newton", seed=1)


def test_benchmark_counts_divergent_draws_as_failures():
    blowup = OdeSystem(
        id="blowup_bench",
        name="blow-up benchmark probe",
        field=lambda th, x: th[..., 0:1] * x**2,
        param_lo=np.array([0.01]),
        param_hi=np.array([1.0]),
        x0=[1.0],
        t_max=3.0,
        linear=True,
    )
    CATALOG[blowup.id] = blowup
    try:
        rep = benchmark_rmse([blowup.id], 10, "deriv", seed=2)[0]
        assert 0 < rep.n_failures < 10
        assert np.isfinite(rep.rmse_mean)
    finally:
        del CATALOG[blowup.id]


def _blowup_system(hi):
    """x' = theta x^2 from x0 = 1, which diverges before t = 3 for theta > 1/3."""
    return OdeSystem(
        id="blowup_box",
        name="blow-up probe",
        field=lambda th, x: th[..., 0:1] * x**2,
        param_lo=np.array([0.01]),
        param_hi=np.array([hi]),
        x0=[1.0],
        t_max=3.0,
    )


def _max_draw_error_bound(rep):
    """sqrt(n (mean^2 + std^2)), the root of the summed squared per-draw
    errors, which no single draw's error exceeds."""
    n = rep.n_draws - rep.n_failures
    return float(np.sqrt(n * (rep.rmse_mean**2 + rep.rmse_std**2)))


def _traj_report(system):
    CATALOG[system.id] = system
    try:
        return benchmark_rmse([system.id], 8, "traj", seed=2, grid_points=20)[0]
    finally:
        del CATALOG[system.id]


def test_traj_gives_up_when_no_feasible_point_is_found(monkeypatch):
    """On the box [0.01, 1.0] a fit whose start diverges fails after that
    one integration; the benchmark starts each simulable draw from
    derivative matching's estimate and recovers both, so 6 of 8 fail."""
    from dynident import estimators

    s = _blowup_system(1.0)
    traj = integrate(s, np.array([0.2]), s.x0, TimeGrid.uniform(0.0, s.t_max, 20))
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1].shape[0])
        return integrate_batch(*args, **kwargs)

    monkeypatch.setattr(estimators, "integrate_batch", counting)
    with pytest.raises(EstimationFailureError):
        fit_trajectory_matching(s, traj, theta0=np.array([0.9]))
    assert calls == [2]  # the start and its one perturbation, in one call

    rep = _traj_report(s)
    assert rep.n_failures == 6
    assert _max_draw_error_bound(rep) <= 1e-12


def test_traj_recovers_every_simulable_draw_of_a_partly_divergent_box():
    """On the box [0.01, 0.68] the midpoint 0.345 diverges, but the start is
    derivative matching's estimate, so every simulable draw is recovered
    exactly; only the 5 draws with theta > 1/3 fail."""
    rep = _traj_report(_blowup_system(0.68))
    assert rep.n_failures == 5
    assert _max_draw_error_bound(rep) <= 1e-12


def test_noise_degrades_accuracy_monotonically():
    """Median RMSE is nondecreasing in the observation-noise level."""
    s = get_system("ode6")
    draws = sample_parameters(s, 20, seed=17)
    # h = 0.01 keeps the differentiation truncation floor (~6e-6) far below
    # the noise-driven error, so the ordering is not decided by round-off
    grid = TimeGrid.uniform(0.0, s.t_max, 1001)
    rng = np.random.default_rng(99)
    medians = []
    for sigma in (0.0, 1e-4, 1e-2):
        rmses = []
        for d in draws:
            traj = integrate(s, d.theta, s.x0, grid)
            noisy = Trajectory(
                system_id=s.id,
                grid=grid,
                states=traj.states + sigma * rng.standard_normal(traj.states.shape),
            )
            noisy.derivs = estimate_derivatives(noisy)
            res = fit_derivative_matching(s, noisy)
            rmses.append(np.linalg.norm(res.theta_hat - d.theta) / np.sqrt(s.param_dim))
        medians.append(np.median(rmses))
    assert medians[0] <= medians[1] <= medians[2]


def test_benchmark_multistart_on_chaotic_system():
    rep = benchmark_rmse(["ode56"], 2, "traj", seed=23)[0]
    assert rep.n_failures == 0
    assert rep.rmse_mean <= 0.5


def test_traj_benchmark_recovers_every_lotka_volterra_draw():
    """Started from the box midpoint, draw 5 took 284 LM and Nelder-Mead
    iterations and ended at error 0.60, reported as converged."""
    rep = benchmark_rmse(["ode27"], 6, "traj", seed=7)[0]
    assert rep.n_failures == 0
    assert _max_draw_error_bound(rep) <= 1e-12


def test_traj_fit_leaves_the_schnakenberg_box_face():
    """Draw 7 of seed 1000 (theta_0 = 0.0555): from the box midpoint LM
    stopped on the face theta_0 = 0.05 at error 0.141; from derivative
    matching's estimate it recovers the truth."""
    s = get_system("ode50")
    theta = sample_parameters(s, 20, seed=1000)[7].theta
    traj = integrate(s, theta, s.x0, TimeGrid.uniform(0.0, s.t_max, 100))
    fit = fit_trajectory_matching(s, traj)
    assert np.linalg.norm(fit.theta_hat - theta) / np.sqrt(s.param_dim) <= 1e-12


_FITS = {
    "closed": fit_closed_form,
    "deriv": fit_derivative_matching,
    "traj": fit_trajectory_matching,
}


def _benchmark_one_fit_at_a_time(method, sid, n_draws, seed, noise, grid_points):
    """The benchmark protocol, one public fit per draw.

    Noise-free draws carry their exact derivatives; noisy ones carry none,
    so the fit (or trajectory matching's derivative-matching start) takes
    finite differences, as the benchmark does.
    """
    s = get_system(sid)
    thetas = np.stack([d.theta for d in sample_parameters(s, n_draws, seed)])
    grid = TimeGrid.uniform(0.0, s.t_max, grid_points)
    states, derivs, ok, _ = integrate_batch(s, thetas, s.x0, grid)
    if noise > 0:
        states = states + noise * substream(seed, "noise", s.id).standard_normal(states.shape)
    rmses, failures = [], 0
    for i in range(n_draws):
        if not ok[i]:  # a diverged draw's states hold NaN, which Trajectory refuses
            failures += 1
            continue
        traj = Trajectory(s.id, grid, states[i], derivs=None if noise > 0 else derivs[i])
        try:
            fit = _FITS[method](s, traj)
        except (EstimationFailureError, IllConditionedError):
            fit = None
        if fit is None:
            failures += 1
        else:
            rmses.append(np.linalg.norm(fit.theta_hat - thetas[i]) / np.sqrt(s.param_dim))
    rmses = np.array(rmses)
    if not rmses.size:
        return float("nan"), float("nan"), failures
    return float(rmses.mean()), float(rmses.std()), failures


@pytest.mark.parametrize(
    "sid, n_draws, seed, noise",
    [
        ("ode3", 3, 11, 0.0),
        ("ode63", 3, 11, 0.0),
        ("ode63", 3, 11, 1e-3),
        ("ode56", 2, 23, 0.0),
        ("blowup_traj", 8, 2, 0.0),
    ],
)
def test_lockstep_traj_benchmark_matches_one_fit_at_a_time(sid, n_draws, seed, noise):
    """Fitting all draws of a cell at once gives bit-identical reports.

    ``blowup_traj`` diverges for theta > 1/3, so some draws fail to simulate
    and some candidate rows diverge inside a batch.
    """
    blowup = OdeSystem(
        id="blowup_traj",
        name="blow-up probe for trajectory matching",
        field=lambda th, x: th[..., 0:1] * x**2,
        param_lo=np.array([0.01]),
        param_hi=np.array([0.5]),
        x0=[1.0],
        t_max=3.0,
    )
    CATALOG[blowup.id] = blowup
    try:
        rep = benchmark_rmse([sid], n_draws, "traj", seed, noise=noise, grid_points=20)[0]
        expected = _benchmark_one_fit_at_a_time("traj", sid, n_draws, seed, noise, 20)
    finally:
        del CATALOG[blowup.id]
    got = (rep.rmse_mean, rep.rmse_std, rep.n_failures)
    assert [float(x).hex() for x in got] == [float(x).hex() for x in expected]
    if sid == blowup.id:
        assert 0 < rep.n_failures < n_draws


def _log_blowup_field(seen):
    """x' = log(theta) x^2, which diverges before t = 3 for theta > e^(1/3)
    and is NaN for theta < 0.  ``seen`` records, for each call on whole
    (T, d) paths (not the RK4 steps), its count of non-finite paths and its
    count of paths."""

    def field(th, x):
        with np.errstate(all="ignore"):
            out = np.log(th[..., 0:1]) * x**2
        if out.ndim >= 3:
            paths = out.reshape(-1, out.shape[-2] * out.shape[-1])
            finite = np.isfinite(paths).all(axis=1)
            seen.append((int((~finite).sum()), len(paths)))
        return out

    return field


@pytest.mark.parametrize(
    "method, sid, n_draws, seed, noise",
    [
        ("deriv", "ode6", 12, 4, 0.0),
        ("deriv", "ode6", 12, 4, 1e-3),
        ("deriv", "ode27", 12, 4, 0.0),
        ("deriv", "ode27", 12, 4, 1e-3),
        ("deriv", "blowup_deriv", 10, 2, 0.0),
        ("deriv", "blowup_deriv", 10, 2, 1e-3),
        ("deriv", "blowup_log", 10, 2, 0.0),
        ("closed", "ode31", 12, 4, 0.0),
        ("closed", "ode31", 12, 4, 1e-3),
        ("closed", "dup_basis", 6, 1, 0.0),
    ],
)
def test_batched_deriv_and_closed_benchmark_match_one_fit_at_a_time(
    method, sid, n_draws, seed, noise
):
    """Fitting all draws of a cell at once gives bit-identical reports.

    ``blowup_deriv`` (x' = theta x^2) diverges for theta > 1/3, so some
    draws fail to simulate; with noise, only the simulable draws are
    differentiated.  Its simulable states stay below the overflow guard, so
    no derivative-matching candidate goes non-finite;
    ``blowup_log`` also diverges and its candidates below 0 are NaN, so some
    rows of a batch are infeasible while others are not.  Every draw of
    ``dup_basis`` has a singular Gram matrix and fails.
    """
    seen = []
    probes = [
        OdeSystem(
            id="blowup_deriv",
            name="blow-up probe for derivative matching",
            field=lambda th, x: th[..., 0:1] * x**2,
            param_lo=np.array([0.01]),
            param_hi=np.array([1.0]),
            x0=[1.0],
            t_max=3.0,
        ),
        OdeSystem(
            id="blowup_log",
            name="blow-up probe with a logarithmic rate",
            field=_log_blowup_field(seen),
            param_lo=np.array([0.1]),
            param_hi=np.array([2.0]),
            x0=[1.0],
            t_max=3.0,
        ),
        OdeSystem(
            id="dup_basis",
            name="duplicated basis function",
            field=lambda th, x: (th[..., 0:1] + th[..., 1:2]) * x,
            param_lo=np.array([0.5, 0.5]),
            param_hi=np.array([2.0, 2.0]),
            x0=[1.0],
            t_max=1.0,
            linear=True,
        ),
    ]
    for probe in probes:
        CATALOG[probe.id] = probe
    try:
        rep = benchmark_rmse([sid], n_draws, method, seed, noise=noise, grid_points=20)[0]
        batched = list(seen)
        expected = _benchmark_one_fit_at_a_time(method, sid, n_draws, seed, noise, 20)
    finally:
        for probe in probes:
            del CATALOG[probe.id]
    got = (rep.rmse_mean, rep.rmse_std, rep.n_failures)
    assert [float(x).hex() for x in got] == [float(x).hex() for x in expected]
    if sid.startswith("blowup"):
        assert 0 < rep.n_failures < n_draws
    if sid == "blowup_log":
        # the first call is the simulation's exact derivatives; the rest are
        # derivative matching's
        assert any(0 < bad < rows for bad, rows in batched[1:])
    if sid == "dup_basis":
        assert rep.n_failures == n_draws


def test_a_singular_damped_solve_raises_only_that_problems_damping(monkeypatch):
    """When LAPACK finds one problem's damped matrix singular, the stacked
    solve fails; that problem alone retries with ten times the damping
    before anything is evaluated, and the other problems of the batch end
    bit-identical to an unpatched run."""
    from dynident import estimators

    offsets = np.array([1.0, 1.5, 2.0])
    starts = np.array([[-1.2, 1.0], [0.5, 0.5], [2.0, -1.0]])
    events, solved = [], []

    def residuals(owners, points):
        """Rosenbrock's residuals, with minimum (c, c^2) for problem offset c."""
        events.append("evaluate")
        t0, t1 = points[..., 0], points[..., 1]
        return np.stack([10.0 * (t1 - t0**2), offsets[owners][:, None] - t0], axis=-1)

    solve = np.linalg.solve

    def spying(a, b):
        events.append("solve")
        solved.append(a.copy())
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", spying)
    expected = estimators._levenberg_marquardt(starts, residuals)
    assert solved[0].shape == (3, 2, 2)
    target = solved[0][1]  # problem 1's first damped matrix

    def failing(a, b):
        events.append("solve")
        solved.append(a.copy())
        if any(np.array_equal(m, target) for m in a):
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    events.clear()
    solved.clear()
    monkeypatch.setattr(np.linalg, "solve", failing)
    got = estimators._levenberg_marquardt(starts, residuals)

    # the failed stack, then problems 0, 1 (failing) and 2 alone, then the
    # retry of problem 1, all before the second evaluation
    assert events[:7] == ["evaluate"] + ["solve"] * 5 + ["evaluate"]
    assert [m.shape[0] for m in solved[:5]] == [3, 1, 1, 1, 1]
    retry = solved[4][0]
    assert np.array_equal(solved[2][0], target)
    off_diagonal = ~np.eye(2, dtype=bool)
    assert np.array_equal(retry[off_diagonal], target[off_diagonal])
    # diag(H) (1 + lam) with lam 1e-3, then 1e-2
    assert np.allclose(np.diag(retry), np.diag(target) * 1.01 / 1.001, rtol=1e-12, atol=0)
    for k in (0, 2):
        for g, e in zip(got, expected):
            assert np.array_equal(g[k], e[k])
    assert got[3][1]
