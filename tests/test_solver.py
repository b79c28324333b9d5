"""Integrator, derivative estimation, DCT compression, persistence."""

import numpy as np
import pytest

from dynident import (
    DivergenceError,
    FileFormatError,
    InvalidArgumentError,
    TimeGrid,
    Trajectory,
    dct_truncate,
    estimate_derivatives,
    get_system,
    idct_expand,
    integrate,
    integrate_batch,
    load_trajectories,
    save_trajectories,
)
from dynident.systems import CATALOG, OdeSystem, sample_parameters


def _dct2_direct(x):
    """Direct-summation orthonormal DCT-II, the oracle for the fft route."""
    n = x.shape[0]
    out = np.zeros_like(x, dtype=float)
    for k in range(n):
        basis = np.cos(np.pi * k * (2.0 * np.arange(n) + 1.0) / (2.0 * n))
        out[k] = basis @ x
    out *= np.sqrt(2.0 / n)
    out[0] /= np.sqrt(2.0)
    return out


# --- TimeGrid ----------------------------------------------------------------


def test_grid_validation():
    with pytest.raises(InvalidArgumentError):
        TimeGrid.uniform(0.0, 0.0, 10)
    with pytest.raises(InvalidArgumentError):
        TimeGrid.uniform(0.0, 1.0, 1)
    with pytest.raises(InvalidArgumentError):
        TimeGrid(t0=0.0, t_max=1.0, points=np.array([0.0, 0.5, 0.4, 1.0]))
    g = TimeGrid.uniform(0.0, 1.0, 11)
    assert g.n_points == 11
    assert g.spacing == pytest.approx(0.1)


# --- integrate ----------------------------------------------------------------


def test_exponential_growth_matches_analytic():
    s = get_system("ode2")
    grid = TimeGrid.uniform(0.0, 2.0, 41)
    traj = integrate(s, np.array([1.3]), np.array([0.5]), grid)
    exact = 0.5 * np.exp(1.3 * grid.points)
    assert np.max(np.abs(traj.states[:, 0] - exact)) < 1e-9


def test_harmonic_oscillator_matches_analytic():
    s = get_system("ode24")
    grid = TimeGrid.uniform(0.0, 10.0, 101)
    traj = integrate(s, np.array([1.0]), np.array([1.0, 0.0]), grid)
    assert np.max(np.abs(traj.states[:, 0] - np.cos(grid.points))) < 1e-8
    assert np.max(np.abs(traj.states[:, 1] + np.sin(grid.points))) < 1e-8


def test_integrate_populates_exact_derivatives():
    s = get_system("ode27")
    theta = np.array([1.2, 0.6, 1.1, 0.4])
    traj = integrate(s, theta)
    expected = s.field(theta, traj.states)
    np.testing.assert_array_equal(traj.derivs, expected)


def test_rk4_self_convergence_ratio():
    """Halving the step shrinks the error by ~2^4; ratio must sit in [12, 20]."""
    s = get_system("ode24")
    grid = TimeGrid.uniform(0.0, 10.0, 101)
    exact = np.stack([np.cos(grid.points), -np.sin(grid.points)], axis=1)
    errs = []
    for h in (0.1, 0.05):
        traj = integrate(s, np.array([1.0]), np.array([1.0, 0.0]), grid, h_int=h)
        errs.append(np.max(np.abs(traj.states - exact)))
    ratio = errs[0] / errs[1]
    assert 12.0 <= ratio <= 20.0


def test_lorenz_self_convergence_step_halving():
    """Default step vs half step agree to 1e-4 on the Lorenz window."""
    s = get_system("ode56")
    grid = TimeGrid.uniform(0.0, 2.0, 100)
    theta = np.array([10.0, 28.0, 8.0 / 3.0])
    t1 = integrate(s, theta, s.x0, grid)
    t2 = integrate(s, theta, s.x0, grid, h_int=0.5 * (2.0 / (50 * 100)))
    assert np.max(np.abs(t1.states - t2.states)) < 1e-4


def test_divergence_guard_carries_first_bad_time():
    blowup = OdeSystem(
        id="blowup",
        name="finite-time blow-up x' = th * x^2",
        state_dim=1,
        param_dim=1,
        field=lambda th, x: th[..., 0:1] * x**2,
        param_lo=np.array([0.5]),
        param_hi=np.array([2.0]),
        x0=[1.0],
        t_max=3.0,
    )
    grid = TimeGrid.uniform(0.0, 3.0, 31)
    with pytest.raises(DivergenceError) as exc:
        integrate(blowup, np.array([1.0]), np.array([1.0]), grid)
    # x' = x^2 from 1 blows up at t = 1
    assert 0.9 <= exc.value.time <= 1.2


def test_integrate_batch_masks_divergent_rows():
    blowup = OdeSystem(
        id="blowup",
        name="blow-up",
        state_dim=1,
        param_dim=1,
        field=lambda th, x: th[..., 0:1] * x**2,
        param_lo=np.array([0.0001]),
        param_hi=np.array([2.0]),
        x0=[1.0],
        t_max=3.0,
    )
    grid = TimeGrid.uniform(0.0, 3.0, 31)
    thetas = np.array([[0.01], [1.0]])  # slow growth vs finite-time blow-up
    states, derivs, ok, bad_t = integrate_batch(blowup, thetas, blowup.x0, grid)
    assert ok.tolist() == [True, False]
    assert np.all(np.isfinite(states[0]))
    assert np.isnan(states[1, -1, 0])
    assert 0.9 <= bad_t[1] <= 1.2
    assert np.isnan(bad_t[0])


@pytest.mark.parametrize("system_id", sorted(CATALOG))
def test_integrate_batch_rows_are_independent(system_id):
    """A row integrates bit-for-bit the same alone as inside any batch.

    Lockstep estimation relies on this: it packs rows of many fits into one
    call.  The mixed batch differs in size, gives each row its own x0, and
    holds rows that trip the overflow guard (at t0, and mid-run through a
    non-finite parameter) and so get parked while the others go on.
    """
    s = get_system(system_id)
    grid = TimeGrid.uniform(0.0, s.t_max, 12)
    thetas = np.stack([d.theta for d in sample_parameters(s, 4, seed=41)])
    rng = np.random.default_rng(8)
    x0s = s.x0 * (1.0 + 0.1 * rng.random((4, s.state_dim)))
    target = (thetas[0], x0s[0])
    rows = [
        (thetas[1], x0s[1]),
        target,
        (thetas[2], np.full(s.state_dim, 1e9)),
        (np.full(s.param_dim, np.nan), x0s[2]),
        (thetas[3], x0s[3]),
        target,
    ]
    batch_states, _, batch_ok, _ = integrate_batch(
        s, np.stack([r[0] for r in rows]), np.stack([r[1] for r in rows]), grid
    )
    alone_states, _, alone_ok, _ = integrate_batch(s, target[0][None], target[1][None], grid)
    assert batch_ok.tolist()[2:4] == [False, False]
    for k in (1, 5):
        assert batch_ok[k] == alone_ok[0]
        assert batch_states[k].tobytes() == alone_states[0].tobytes()


def test_grid_points_hit_exactly():
    """Irregular grids are landed on exactly by sub-stepping, not interpolation."""
    s = get_system("ode2")
    grid = TimeGrid(t0=0.0, t_max=1.0, points=np.array([0.0, 0.3, 0.55, 1.0]))
    exact = np.exp(grid.points)
    coarse = integrate(s, np.array([1.0]), np.array([1.0]), grid, h_int=0.2)
    assert np.max(np.abs(coarse.states[:, 0] - exact)) < 1e-4
    fine = integrate(s, np.array([1.0]), np.array([1.0]), grid, h_int=0.01)
    assert np.max(np.abs(fine.states[:, 0] - exact)) < 1e-9


def test_integrate_theta_validation():
    s = get_system("ode2")
    with pytest.raises(InvalidArgumentError):
        integrate(s, np.array([1.0, 2.0]))
    with pytest.raises(InvalidArgumentError):
        integrate(s, np.array([np.nan]))


# --- estimate_derivatives -----------------------------------------------------


def test_derivative_estimation_on_sine():
    """Second-order differences on sin(t) at h = 0.01: max error <= 5e-5."""
    grid = TimeGrid.uniform(0.0, 2.0, 201)
    states = np.sin(grid.points)[:, None]
    traj = Trajectory(system_id="sine", grid=grid, states=states)
    est = estimate_derivatives(traj)
    err = np.max(np.abs(est[:, 0] - np.cos(grid.points)))
    assert err <= 5e-5


def test_derivative_estimation_exact_on_quadratic():
    """A second-order stencil differentiates quadratics exactly."""
    grid = TimeGrid.uniform(0.0, 1.0, 11)
    t = grid.points
    states = np.stack([3.0 * t**2 - t + 2.0, t**2], axis=1)
    traj = Trajectory(system_id="quad", grid=grid, states=states)
    est = estimate_derivatives(traj)
    expected = np.stack([6.0 * t - 1.0, 2.0 * t], axis=1)
    np.testing.assert_allclose(est, expected, rtol=0, atol=1e-12)


def test_derivative_estimation_requires_uniform_grid():
    grid = TimeGrid(t0=0.0, t_max=1.0, points=np.array([0.0, 0.2, 0.7, 1.0]))
    traj = Trajectory(system_id="x", grid=grid, states=np.zeros((4, 1)))
    with pytest.raises(InvalidArgumentError):
        estimate_derivatives(traj)


def test_derivative_estimation_requires_three_points():
    grid = TimeGrid.uniform(0.0, 1.0, 2)
    traj = Trajectory(system_id="x", grid=grid, states=np.zeros((2, 1)))
    with pytest.raises(InvalidArgumentError):
        estimate_derivatives(traj)


# --- DCT ----------------------------------------------------------------------


def test_dct_matches_direct_summation():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((17, 2))
    np.testing.assert_allclose(dct_truncate(x, 1.0), _dct2_direct(x), rtol=0, atol=1e-12)


def test_dct_pure_mode_concentrates_energy():
    n, k = 32, 5
    t = np.arange(n)
    x = np.cos(np.pi * k * (2 * t + 1) / (2 * n))[:, None]
    coeffs = dct_truncate(x, 1.0)
    energy = coeffs[:, 0] ** 2
    assert energy[k] / energy.sum() > 1.0 - 1e-12


def test_dct_truncation_keeps_ceil_fraction():
    x = np.random.default_rng(0).standard_normal((10, 3))
    assert dct_truncate(x, 0.5).shape == (5, 3)
    assert dct_truncate(x, 0.45).shape == (5, 3)  # ceil(4.5)
    assert dct_truncate(x, 1.0).shape == (10, 3)


def test_dct_roundtrip_without_truncation():
    x = np.random.default_rng(1).standard_normal((21, 2))
    np.testing.assert_allclose(idct_expand(dct_truncate(x, 1.0), 21), x, rtol=0, atol=1e-12)


def test_dct_truncate_expand_is_projection():
    """Applying truncate-then-expand twice equals applying it once."""
    x = np.random.default_rng(2).standard_normal((40, 2))
    once = idct_expand(dct_truncate(x, 0.3), 40)
    twice = idct_expand(dct_truncate(once, 0.3), 40)
    np.testing.assert_allclose(twice, once, rtol=0, atol=1e-12)


def test_dct_batch_equals_one_trajectory_at_a_time():
    x = np.random.default_rng(4).standard_normal((7, 23, 3))
    for keep in (0.3, 0.5, 1.0):
        loop = np.stack([dct_truncate(row, keep) for row in x])
        assert np.array_equal(dct_truncate(x, keep), loop)


def test_dct_bad_fraction_rejected():
    x = np.zeros((5, 1))
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(InvalidArgumentError):
            dct_truncate(x, bad)


# --- persistence ----------------------------------------------------------------


def test_trajectory_roundtrip_is_bit_exact(tmp_path):
    s = get_system("ode56")
    traj = integrate(s, np.array([10.0, 28.0, 8.0 / 3.0]))
    path = tmp_path / "trajs.jsonl"
    save_trajectories(path, [traj])
    loaded = load_trajectories(path)
    assert len(loaded) == 1
    got = loaded[0]
    assert got.system_id == traj.system_id
    np.testing.assert_array_equal(got.states, traj.states)
    np.testing.assert_array_equal(got.derivs, traj.derivs)
    np.testing.assert_array_equal(got.theta_truth, traj.theta_truth)
    np.testing.assert_array_equal(got.grid.points, traj.grid.points)


def test_trajectory_roundtrip_without_optional_fields(tmp_path):
    grid = TimeGrid.uniform(0.0, 1.0, 4)
    traj = Trajectory(system_id="anon", grid=grid, states=np.arange(8.0).reshape(4, 2) / 7.0)
    path = tmp_path / "t.jsonl"
    save_trajectories(path, [traj])
    got = load_trajectories(path)[0]
    assert got.derivs is None and got.theta_truth is None
    np.testing.assert_array_equal(got.states, traj.states)


def test_truncated_trajectory_file_names_the_path(tmp_path):
    s = get_system("ode56")
    path = tmp_path / "trajs.jsonl"
    save_trajectories(path, [integrate(s, np.array([10.0, 28.0, 8.0 / 3.0]))])
    path.write_bytes(path.read_bytes()[:500])
    with pytest.raises(FileFormatError, match="trajs.jsonl"):
        load_trajectories(path)
