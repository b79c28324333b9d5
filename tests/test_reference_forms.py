"""The catalog fields and the RK4 loop against plain reference forms.

The package's fields write each component into one preallocated output, and
``integrate_batch`` reuses its stage buffers and updates the state in place.
Both must give, bit for bit, what the straightforward forms kept here give:
fields that stack separately computed components, and an RK4 loop that
allocates every intermediate.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from dynident import CATALOG, OdeSystem, TimeGrid, integrate_batch
from dynident.solver import OVERFLOW_GUARD, _substep_plan, default_h_int
from dynident.systems import _CARTPOLE_FORCE, _CARTPOLE_GRAVITY


def _harmonic(theta, x):
    v, p = x[..., 1], x[..., 0]
    return np.stack(np.broadcast_arrays(v, -theta[..., 0] * p), axis=-1)


def _damped_harmonic(theta, x):
    v, p = x[..., 1], x[..., 0]
    return np.stack(np.broadcast_arrays(v, -theta[..., 0] * p - theta[..., 1] * v), axis=-1)


def _lotka_volterra(theta, x):
    prey, pred = x[..., 0], x[..., 1]
    dprey = prey * (theta[..., 0] - theta[..., 1] * pred)
    dpred = -pred * (theta[..., 2] - theta[..., 3] * prey)
    return np.stack((dprey, dpred), axis=-1)


def _pendulum(theta, x):
    ang, vel = x[..., 0], x[..., 1]
    return np.stack(np.broadcast_arrays(vel, -theta[..., 0] * np.sin(ang)), axis=-1)


def _sir(theta, x):
    s, i = x[..., 0], x[..., 1]
    infect = theta[..., 0] * s * i
    return np.stack((-infect, infect - theta[..., 1] * i), axis=-1)


def _schnakenberg(theta, x):
    u, v = x[..., 0], x[..., 1]
    auto = u**2 * v
    return np.stack((theta[..., 0] + auto - u, theta[..., 1] - auto), axis=-1)


def _lorenz(theta, x):
    a, b, c = x[..., 0], x[..., 1], x[..., 2]
    s, r, beta = theta[..., 0], theta[..., 1], theta[..., 2]
    return np.stack((s * (b - a), r * a - a * c - b, -beta * c + a * b), axis=-1)


def _seir(theta, x):
    s, e, i = x[..., 0], x[..., 1], x[..., 2]
    exposure = theta[..., 1] * s * i
    activation = theta[..., 0] * e
    removal = theta[..., 2] * i
    return np.stack(
        (-exposure, exposure - activation, activation - removal, removal), axis=-1
    )


def _cartpole(theta, x):
    vel, ang, omega = x[..., 1], x[..., 2], x[..., 3]
    m_cart, m_pole, length = theta[..., 0], theta[..., 1], theta[..., 2]
    total = m_cart + m_pole
    sin_a, cos_a = np.sin(ang), np.cos(ang)
    temp = (_CARTPOLE_FORCE + m_pole * length * omega**2 * sin_a) / total
    ang_acc = (_CARTPOLE_GRAVITY * sin_a - cos_a * temp) / (
        length * (4.0 / 3.0 - m_pole * cos_a**2 / total)
    )
    lin_acc = temp - m_pole * length * ang_acc * cos_a / total
    return np.stack(np.broadcast_arrays(vel, lin_acc, omega, ang_acc), axis=-1)


REFERENCE_FIELDS = {
    "ode24": _harmonic,
    "ode25": _damped_harmonic,
    "ode27": _lotka_volterra,
    "ode28": _pendulum,
    "ode31": _sir,
    "ode50": _schnakenberg,
    "ode56": _lorenz,
    "ode63": _seir,
    "cartpole": _cartpole,
}


def _broadcast_shapes(kind, n, d, sizes):
    """(theta shape, x shape) of each way the package calls a field."""
    a, b = sizes
    return {
        # integrate_batch's stages: one state per parameter row
        "batch": ((a, n), (a, d)),
        # integrate_batch's exact derivatives: one row against its path
        "path": ((a, 1, n), (a, b, d)),
        # derivative matching: blocks of points against one copy of a path
        "blocks": ((a, n + 1, 1, n), (a, 1, b, d)),
        # basis_matrix: one unit vector against a stack of paths
        "basis": ((n,), (a, b, d)),
    }[kind]


def test_every_multi_component_field_has_a_reference():
    assert set(REFERENCE_FIELDS) == {s for s, sys in CATALOG.items() if sys.state_dim > 1}


@settings(max_examples=200, deadline=None)
@given(
    system_id=st.sampled_from(sorted(REFERENCE_FIELDS)),
    kind=st.sampled_from(["batch", "path", "blocks", "basis"]),
    sizes=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    data=st.data(),
)
def test_field_is_bit_equal_to_its_stacked_reference(system_id, kind, sizes, data):
    system = CATALOG[system_id]
    theta_shape, x_shape = _broadcast_shapes(
        kind, system.param_dim, system.state_dim, sizes
    )
    values = st.floats(-1e3, 1e3, allow_subnormal=False)
    theta = data.draw(arrays(np.float64, theta_shape, elements=values))
    x = data.draw(arrays(np.float64, x_shape, elements=values))
    with np.errstate(all="ignore"):
        got = system.field(theta, x)
        want = REFERENCE_FIELDS[system_id](theta, x)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert not np.shares_memory(got, x)


def _reference_integrate_batch(system, thetas, x0s, grid):
    """Out-of-place RK4 with the guard of :func:`integrate_batch`."""
    thetas = np.asarray(thetas, dtype=float)
    n_batch = len(thetas)
    x = np.array(np.broadcast_to(x0s, (n_batch, system.state_dim)), dtype=float)
    states = np.full((n_batch, grid.n_points, system.state_dim), np.nan)
    states[:, 0] = x
    ok = np.ones(n_batch, dtype=bool)
    first_bad_time = np.full(n_batch, np.nan)
    f = system.field

    def flag_bad(x, t_now):
        sq = np.einsum("bd,bd->b", x, x)
        bad_now = ~np.isfinite(sq) | (sq > OVERFLOW_GUARD**2)
        newly = bad_now & ok
        ok[newly] = False
        first_bad_time[newly] = t_now
        x = x.copy()
        x[bad_now] = 0.0
        return x

    with np.errstate(all="ignore"):
        x = flag_bad(x, grid.points[0])
        for k, (h, n_sub) in enumerate(_substep_plan(grid, default_h_int(grid))):
            for _ in range(n_sub):
                k1 = f(thetas, x)
                k2 = f(thetas, x + 0.5 * h * k1)
                k3 = f(thetas, x + 0.5 * h * k2)
                k4 = f(thetas, x + h * k3)
                x = x + h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
            x = flag_bad(x, grid.points[k + 1])
            states[ok, k + 1] = x[ok]
        derivs = np.array(f(thetas[:, None, :], states))
    derivs[~ok] = np.nan
    return states, derivs, ok, first_bad_time


def _assert_bit_equal(got, want):
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("system_id", sorted(CATALOG))
def test_integrate_batch_is_bit_equal_to_out_of_place_rk4(system_id):
    system = CATALOG[system_id]
    rng = np.random.default_rng(25)
    n, d = system.param_dim, system.state_dim
    in_box = system.param_lo + rng.random((4, n)) * (system.param_hi - system.param_lo)
    # Three stress rows follow the in-box draws; for every system at least
    # one of them crosses the overflow guard after t0.
    thetas = np.vstack([in_box, system.param_hi, -10.0 * system.param_hi, system.param_lo])
    x0s = np.vstack(
        [np.tile(system.x0, (4, 1)), np.full(d, 1e6), system.x0 + 1.0, np.full(d, 5e7)]
    )
    grid = TimeGrid.uniform(0.0, system.t_max, 20)
    got = integrate_batch(system, thetas, x0s, grid)
    want = _reference_integrate_batch(system, thetas, x0s, grid)
    _assert_bit_equal(got, want)
    ok, first_bad_time = got[2], got[3]
    assert ok[:4].all()
    assert np.any(~ok & (first_bad_time > grid.t0))


@pytest.mark.parametrize(
    "field",
    [lambda theta, x: x, lambda theta, x: x[..., ::-1]],
    ids=["returns-x", "returns-a-view-of-x"],
)
def test_integrate_batch_survives_fields_that_return_their_argument(field):
    system = OdeSystem("view", "returns its argument", field, [0.5], [1.5], [1.0, 0.5], 1.0)
    grid = TimeGrid.uniform(0.0, system.t_max, 6)
    # The last row starts past the overflow guard, so its derivatives are
    # masked while the others are kept.
    x0s = np.array([[1.0, 0.5], [-2.0, 3.0], [2e8, 0.0]])
    got = integrate_batch(system, np.ones((3, 1)), x0s, grid)
    want = _reference_integrate_batch(system, np.ones((3, 1)), x0s, grid)
    _assert_bit_equal(got, want)
    states, derivs, ok, _ = got
    assert ok.tolist() == [True, True, False]
    assert not np.shares_memory(states, derivs)
    assert np.isfinite(states[:2]).all() and np.isfinite(derivs[:2]).all()
