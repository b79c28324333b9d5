"""Catalog contracts: field evaluation, sampling, linear-in-theta bases."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from dynident import (
    CATALOG,
    InvalidArgumentError,
    OdeSystem,
    TimeGrid,
    UnsupportedOperationError,
    basis_matrix,
    get_system,
    integrate,
    integrate_batch,
    sample_parameters,
)

REQUIRED_IDS = {
    "ode2",
    "ode3",
    "ode5",
    "ode6",
    "ode24",
    "ode25",
    "ode27",
    "ode28",
    "ode31",
    "ode50",
    "ode56",
    "ode63",
    "cartpole",
}


def test_catalog_contents():
    assert REQUIRED_IDS <= set(CATALOG)
    assert len(CATALOG) >= 12
    dims = {s.state_dim for s in CATALOG.values()}
    assert {1, 2, 3, 4} <= dims


def test_catalog_boxes_and_x0_shapes():
    for s in CATALOG.values():
        assert s.param_lo.shape == (s.param_dim,)
        assert np.all(s.param_lo < s.param_hi)
        assert s.x0.shape == (s.state_dim,)
        assert s.t_max > 0


# --- fields ----------------------------------------------------------------


def test_lorenz_field_known_point():
    s = get_system("ode56")
    out = s.field(np.array([10.0, 28.0, 8.0 / 3.0]), np.array([1.0, 1.0, 1.0]))
    np.testing.assert_allclose(out, [0.0, 26.0, 1.0 - 8.0 / 3.0], rtol=0, atol=1e-15)


def test_logistic_field_known_point():
    s = get_system("ode3")
    out = s.field(np.array([1.0, 2.0]), np.array([1.0]))
    np.testing.assert_allclose(out, [0.5], rtol=0, atol=1e-15)


def test_field_broadcasts_over_batches():
    s = get_system("ode27")
    rng = np.random.default_rng(0)
    thetas = rng.uniform(0.5, 2.0, size=(6, 4))
    xs = rng.uniform(0.5, 3.0, size=(6, 2))
    batch = s.field(thetas, xs)
    for i in range(6):
        single = s.field(thetas[i], xs[i])
        np.testing.assert_array_equal(batch[i], single)


def test_every_field_broadcasts_batched_theta_against_shared_states():
    """theta (B, 1, N) against states (T, d) must give (B, T, d) everywhere.

    This is the shape the Jacobian probes inside the fitters use; fields
    whose components do not all mention theta are the easy ones to get wrong.
    """
    rng = np.random.default_rng(1)
    for s in CATALOG.values():
        thetas = np.stack([d.theta for d in sample_parameters(s, 3, seed=77)])
        grid = TimeGrid.uniform(0.0, s.t_max, 12)
        states, _, ok, _ = integrate_batch(s, thetas, s.x0, grid)
        assert ok.all(), s.id
        shared = states[0]
        batch = s.field(thetas[:, None, :], shared)
        assert batch.shape == (3, 12, s.state_dim), s.id
        for i in range(3):
            np.testing.assert_array_equal(
                batch[i], s.field(thetas[i], shared), err_msg=s.id
            )


def test_every_field_broadcasts_blocks_of_theta_against_one_copy_of_each_path():
    """theta (K, B, 1, N) against states (K, 1, T, d) must give (K, B, T, d),
    each block's rows evaluated on its own path: the shape derivative
    matching evaluates its candidates and their perturbations in."""
    for s in CATALOG.values():
        thetas = np.stack([d.theta for d in sample_parameters(s, 6, seed=78)])
        grid = TimeGrid.uniform(0.0, s.t_max, 9)
        states, _, ok, _ = integrate_batch(s, thetas[:2], s.x0, grid)
        assert ok.all(), s.id
        blocks = thetas.reshape(2, 3, 1, s.param_dim)
        out = s.field(blocks, states[:, None])
        assert out.shape == (2, 3, 9, s.state_dim), s.id
        for k in range(2):
            np.testing.assert_array_equal(
                out[k], s.field(blocks[k], states[k]), err_msg=s.id
            )


def test_fields_finite_on_box_and_reachable_states():
    """f(theta, x) stays finite for box draws along their own trajectories."""
    for s in CATALOG.values():
        draws = sample_parameters(s, 5, seed=101)
        thetas = np.stack([d.theta for d in draws])
        grid = TimeGrid.uniform(0.0, s.t_max, 60)
        states, derivs, ok, _ = integrate_batch(s, thetas, s.x0, grid)
        assert ok.all(), f"{s.id} diverged inside its own parameter box"
        assert np.all(np.isfinite(derivs)), s.id


def test_structural_identifiability_sanity():
    """Distinct parameters must produce distinct trajectories."""
    rng = np.random.default_rng(42)
    for s in CATALOG.values():
        grid = TimeGrid.uniform(0.0, s.t_max, 60)
        for _ in range(20):
            u1, u2 = rng.random(s.param_dim), rng.random(s.param_dim)
            th1 = s.param_lo + u1 * (s.param_hi - s.param_lo)
            th2 = s.param_lo + u2 * (s.param_hi - s.param_lo)
            if np.allclose(th1, th2):
                continue
            states, _, ok, _ = integrate_batch(s, np.stack([th1, th2]), s.x0, grid)
            assert ok.all()
            gap = np.max(np.abs(states[0] - states[1]))
            assert gap > 1e-6, f"{s.id}: thetas {th1} vs {th2} indistinguishable"


# --- sample_parameters -----------------------------------------------------


def test_sampling_is_reproducible():
    s = get_system("ode27")
    a = sample_parameters(s, 3, seed=9)
    b = sample_parameters(s, 3, seed=9)
    for da, db in zip(a, b):
        np.testing.assert_array_equal(da.theta, db.theta)
    c = sample_parameters(s, 3, seed=10)
    assert any(not np.array_equal(da.theta, dc.theta) for da, dc in zip(a, c))


def test_sampling_stays_in_box_and_fills_it():
    s = get_system("ode27")
    thetas = np.stack([d.theta for d in sample_parameters(s, 1000, seed=2)])
    assert np.all(thetas >= s.param_lo) and np.all(thetas <= s.param_hi)
    # with 1000 uniform draws each component should come within 2% of each edge
    width = s.param_hi - s.param_lo
    assert np.all(thetas.min(axis=0) < s.param_lo + 0.02 * width)
    assert np.all(thetas.max(axis=0) > s.param_hi - 0.02 * width)


def test_sampling_rejects_bad_n():
    with pytest.raises(InvalidArgumentError):
        sample_parameters(get_system("ode2"), 0, seed=1)


# --- basis -----------------------------------------------------------------

LINEAR_IDS = ["ode2", "ode5", "ode6", "ode27", "ode31", "ode63"]


def test_linear_systems_carry_basis():
    for sid in LINEAR_IDS:
        assert get_system(sid).linear
    for sid in ["ode3", "ode24", "ode25", "ode28", "ode50", "ode56", "cartpole"]:
        assert not get_system(sid).linear


@settings(max_examples=200, deadline=None)
@given(sid=st.sampled_from(LINEAR_IDS), n_steps=st.integers(1, 8), data=st.data())
def test_basis_linearity_identity(sid, n_steps, data):
    """theta @ basis_matrix(s, X) == field(theta, X) for theta in the box and any states."""
    s = get_system(sid)
    u = data.draw(arrays(np.float64, s.param_dim, elements=st.floats(0.0, 1.0)))
    theta = s.param_lo + u * (s.param_hi - s.param_lo)
    states = data.draw(
        arrays(np.float64, (n_steps, s.state_dim), elements=st.floats(-3.0, 3.0))
    )
    f = s.field(theta, states).ravel()
    combo = theta @ basis_matrix(s, states)
    assert combo.shape == f.shape
    assert np.max(np.abs(combo - f)) <= 1e-12 * (1.0 + np.max(np.abs(f)))


def test_basis_matrix_constant_trajectory():
    """Autocatalysis basis {x, -x^2} at constant x=2 gives rows of 2 and -4."""
    s = get_system("ode6")
    states = np.full((3, 1), 2.0)
    phi = basis_matrix(s, states)
    np.testing.assert_array_equal(phi[0], [2.0, 2.0, 2.0])
    np.testing.assert_array_equal(phi[1], [-4.0, -4.0, -4.0])


def test_basis_matrix_shape_and_rank():
    s = get_system("ode27")
    traj = integrate(s, np.array([1.0, 0.5, 1.0, 0.5]))
    phi = basis_matrix(s, traj.states)
    assert phi.shape == (4, traj.grid.n_points * 2)
    assert np.linalg.matrix_rank(phi) == 4


def test_basis_matrix_without_basis_raises():
    s = get_system("ode56")
    with pytest.raises(UnsupportedOperationError):
        basis_matrix(s, np.ones((5, 3)))


def test_custom_system_validation():
    cases = [
        ([0.1], [2.0], [1.0]),  # lo > hi
        ([], [1.0], [2.0]),  # empty state
        ([[0.1]], [1.0], [2.0]),  # 2-d state
        ([0.1], [], []),  # empty box
        ([0.1], [[1.0]], [[2.0]]),  # 2-d box
        ([0.1], [1.0, 1.0], [2.0]),  # lo and hi differ in shape
    ]
    for x0, lo, hi in cases:
        with pytest.raises(InvalidArgumentError):
            OdeSystem(
                id="bad",
                name="bad box or state",
                field=lambda th, x: x,
                param_lo=np.array(lo),
                param_hi=np.array(hi),
                x0=x0,
                t_max=1.0,
            )


def test_custom_system_dimensions_come_from_x0_and_box():
    s = OdeSystem(id="dims", name="d = 3, N = 2", field=lambda th, x: x,
                  param_lo=[0.0, 1.0], param_hi=[1.0, 2.0], x0=[0.0, 0.0, 0.0], t_max=1.0)
    assert (s.state_dim, s.param_dim, s.linear) == (3, 2, False)
