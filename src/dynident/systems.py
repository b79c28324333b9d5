"""Catalog of autonomous ODE systems with known parametric form.

Every system is ``x' = f(theta, x)`` with ``x`` in R^d and ``theta`` in a
rectangular parameter box.  Field implementations broadcast: ``theta`` with
shape ``(..., N)`` and ``x`` with shape ``(..., d)`` combine under normal
numpy rules and return ``(..., d)``, which lets the integrator and the
estimators evaluate whole batches of parameter draws in one call.

The returned array is either fresh or derived from the inputs (a view of
``x`` is allowed).  A field must not keep ``x`` between calls: the
integrator hands it buffers that it overwrites on the next step.  The
multi-component catalog fields allocate their output once and write each
component into it.

Systems whose field is *linear* in ``theta`` (f = sum_i theta_i * phi_i(x))
are declared ``linear``, enabling the closed-form least-squares estimator.
Their basis is read off the field itself: phi_i(x) = f(e_i, x) for the unit
vector e_i, so no system states its field twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidArgumentError, UnsupportedOperationError
from .seeding import substream

CATALOG_VERSION = "1"

# Fixed physical constants of the cart-pole rig.  The drive force must be
# nonzero: with F = 0 the dynamics depend on the masses only through the
# ratio m_p / (m_c + m_p) and the individual masses are not identifiable.
_CARTPOLE_GRAVITY = 9.8
_CARTPOLE_FORCE = 10.0

FieldFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass
class OdeSystem:
    """One catalog entry.

    Attributes
    ----------
    id : str
        Stable catalog key (also the CLI name).
    name : str
        Human-readable description.
    field : callable
        ``field(theta, x) -> dx``, broadcasting as described in the module
        docstring.  ``dx`` is a fresh ``(..., d)`` array or one derived from
        the inputs; ``x`` may be a buffer that the integrator reuses, so the
        field must not keep it between calls.
    param_lo, param_hi : np.ndarray
        Componentwise bounds of the parameter box, ``param_lo < param_hi``.
    x0 : np.ndarray
        Canonical initial condition used by benchmarks.
    t_max : float
        Canonical integration horizon [0, t_max].
    linear : bool
        Declares the field linear in theta, so that
        ``field(theta, x) == sum_i theta_i * field(e_i, x)`` and the
        closed-form estimator applies.

    The dimensions are read off the arrays: ``state_dim`` (d) is the length
    of ``x0`` and ``param_dim`` (N) that of ``param_lo``.
    """

    id: str
    name: str
    field: FieldFn
    param_lo: np.ndarray
    param_hi: np.ndarray
    x0: np.ndarray
    t_max: float
    linear: bool = False

    def __post_init__(self):
        self.param_lo = np.asarray(self.param_lo, dtype=float)
        self.param_hi = np.asarray(self.param_hi, dtype=float)
        self.x0 = np.asarray(self.x0, dtype=float)
        if self.x0.ndim != 1 or self.x0.size == 0:
            raise InvalidArgumentError(f"{self.id}: x0 must be a non-empty vector")
        if (
            self.param_lo.ndim != 1
            or self.param_lo.size == 0
            or self.param_hi.shape != self.param_lo.shape
        ):
            raise InvalidArgumentError(f"{self.id}: parameter box shape mismatch")
        if not np.all(self.param_lo < self.param_hi):
            raise InvalidArgumentError(f"{self.id}: parameter box requires lo < hi componentwise")

    @property
    def state_dim(self) -> int:
        """d, the length of ``x0``."""
        return len(self.x0)

    @property
    def param_dim(self) -> int:
        """N, the length of the parameter box."""
        return len(self.param_lo)

    @property
    def param_midpoint(self) -> np.ndarray:
        """Center of the parameter box (the default optimizer start)."""
        return 0.5 * (self.param_lo + self.param_hi)


@dataclass
class ParameterDraw:
    """A sampled ground-truth parameter vector."""

    system_id: str
    theta: np.ndarray

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)


# ---------------------------------------------------------------------------
# Field implementations.  Each takes theta (..., N) and x (..., d).
# ---------------------------------------------------------------------------


def _growth(theta, x):
    """Unbounded population growth: x' = th0 * x."""
    return theta[..., 0:1] * x


def _logistic(theta, x):
    """Growth with carrying capacity: x' = th0 * x * (1 - x / th1)."""
    return theta[..., 0:1] * x * (1.0 - x / theta[..., 1:2])


def _fall_drag(theta, x):
    """Falling object with quadratic drag: v' = th0 - th1 * v^2."""
    return theta[..., 0:1] - theta[..., 1:2] * x**2


def _autocatalysis(theta, x):
    """Autocatalysis with one abundant reagent: x' = th0 * x - th1 * x^2."""
    return theta[..., 0:1] * x - theta[..., 1:2] * x**2


def _field_out(theta, x):
    """Uninitialised ``(..., d)`` output of a multi-component field: the
    broadcast shape of ``theta[..., 0]`` and ``x[..., 0]``, then ``d``.

    Fields write each component into it, which spares the copies of
    stacking separately computed components.
    """
    shape = x.shape[:-1]
    if theta.shape[:-1] != shape:
        shape = np.broadcast_shapes(theta.shape[:-1], shape)
    return np.empty((*shape, x.shape[-1]), dtype=np.result_type(theta, x, 1.0))


def _harmonic(theta, x):
    v, p = x[..., 1], x[..., 0]
    out = _field_out(theta, x)
    out[..., 0] = v
    np.multiply(-theta[..., 0], p, out=out[..., 1])
    return out


def _damped_harmonic(theta, x):
    v, p = x[..., 1], x[..., 0]
    out = _field_out(theta, x)
    out[..., 0] = v
    np.subtract(-theta[..., 0] * p, theta[..., 1] * v, out=out[..., 1])
    return out


def _lotka_volterra(theta, x):
    prey, pred = x[..., 0], x[..., 1]
    out = _field_out(theta, x)
    np.multiply(prey, theta[..., 0] - theta[..., 1] * pred, out=out[..., 0])
    np.multiply(-pred, theta[..., 2] - theta[..., 3] * prey, out=out[..., 1])
    return out


def _pendulum(theta, x):
    ang, vel = x[..., 0], x[..., 1]
    out = _field_out(theta, x)
    out[..., 0] = vel
    np.multiply(-theta[..., 0], np.sin(ang), out=out[..., 1])
    return out


def _sir(theta, x):
    s, i = x[..., 0], x[..., 1]
    infect = theta[..., 0] * s * i
    out = _field_out(theta, x)
    np.negative(infect, out=out[..., 0])
    np.subtract(infect, theta[..., 1] * i, out=out[..., 1])
    return out


def _schnakenberg(theta, x):
    u, v = x[..., 0], x[..., 1]
    auto = u**2 * v
    out = _field_out(theta, x)
    np.subtract(theta[..., 0] + auto, u, out=out[..., 0])
    np.subtract(theta[..., 1], auto, out=out[..., 1])
    return out


def _lorenz(theta, x):
    a, b = x[..., 0], x[..., 1]
    c = x[..., 2]
    s, r, beta = theta[..., 0], theta[..., 1], theta[..., 2]
    out = _field_out(theta, x)
    np.multiply(s, b - a, out=out[..., 0])
    np.subtract(r * a - a * c, b, out=out[..., 1])
    np.add(-beta * c, a * b, out=out[..., 2])
    return out


def _seir(theta, x):
    s, e, i = x[..., 0], x[..., 1], x[..., 2]
    incubation, transmission, recovery = theta[..., 0], theta[..., 1], theta[..., 2]
    exposure = transmission * s * i
    activation = incubation * e
    out = _field_out(theta, x)
    removal = np.multiply(recovery, i, out=out[..., 3])
    np.negative(exposure, out=out[..., 0])
    np.subtract(exposure, activation, out=out[..., 1])
    np.subtract(activation, removal, out=out[..., 2])
    return out


def _cartpole(theta, x):
    """Cart-pole under a constant drive force.

    State is (cart position, cart velocity, pole angle, pole angular
    velocity); parameters are (cart mass, pole mass, pole half-length
    scale).  Angular acceleration is solved first, then substituted into the
    cart acceleration.
    """
    vel, ang, omega = x[..., 1], x[..., 2], x[..., 3]
    m_cart, m_pole, length = theta[..., 0], theta[..., 1], theta[..., 2]
    total = m_cart + m_pole
    sin_a, cos_a = np.sin(ang), np.cos(ang)
    temp = (_CARTPOLE_FORCE + m_pole * length * omega**2 * sin_a) / total
    out = _field_out(theta, x)
    out[..., 0] = vel
    out[..., 2] = omega
    ang_acc = np.divide(
        _CARTPOLE_GRAVITY * sin_a - cos_a * temp,
        length * (4.0 / 3.0 - m_pole * cos_a**2 / total),
        out=out[..., 3],
    )
    np.subtract(temp, m_pole * length * ang_acc * cos_a / total, out=out[..., 1])
    return out


CATALOG: dict[str, OdeSystem] = {}


def _register(id, name, field, canonical, x0, t_max, *, spread=(0.5, 2.0), linear=False):
    """Add a system whose box spans ``canonical`` scaled by ``spread``."""
    canonical = np.asarray(canonical, dtype=float)
    CATALOG[id] = OdeSystem(
        id, name, field, canonical * spread[0], canonical * spread[1], x0, t_max, linear
    )


_register("ode2", "population growth, unbounded", _growth, [1.0], [0.5], 2.0, linear=True)
_register("ode3", "population growth with carrying capacity", _logistic, [1.0, 2.0], [0.1], 10.0)
_register(
    "ode5", "falling object with air resistance", _fall_drag, [9.8, 0.5], [0.0], 3.0, linear=True
)
_register(
    "ode6", "autocatalysis with one fixed abundant chemical", _autocatalysis, [1.0, 0.5], [0.1],
    10.0, linear=True,
)
_register("ode24", "harmonic oscillator without damping", _harmonic, [1.0], [1.0, 0.0], 10.0)
_register(
    "ode25", "harmonic oscillator with damping", _damped_harmonic, [1.0, 0.5], [1.0, 0.0], 10.0
)
_register(
    "ode27", "Lotka-Volterra predator-prey", _lotka_volterra, [1.0, 0.5, 1.0, 0.5], [2.0, 1.0],
    10.0, linear=True,
)
_register("ode28", "pendulum without friction", _pendulum, [2.0], [1.5, 0.0], 10.0)
_register("ode31", "SIR infection dynamics", _sir, [2.0, 1.0], [0.99, 0.01], 10.0, linear=True)
_register("ode50", "Schnakenberg chemical oscillator", _schnakenberg, [0.1, 0.9], [1.0, 1.0], 20.0)
_register(
    "ode56", "Lorenz attractor", _lorenz, [10.0, 28.0, 8.0 / 3.0], [1.0, 1.0, 1.0], 2.0,
    spread=(0.95, 1.05),
)
_register(
    "ode63", "SEIR infection dynamics", _seir, [0.5, 1.5, 0.5], [0.97, 0.02, 0.01, 0.0], 15.0,
    linear=True,
)
_register(
    "cartpole", "cart-pole under constant force", _cartpole, [1.0, 0.1, 0.5],
    [0.0, 0.0, 0.1, 0.0], 2.0,
)


def get_system(system_id: str) -> OdeSystem:
    """Look up a catalog entry, raising a helpful error on unknown ids."""
    try:
        return CATALOG[system_id]
    except KeyError:
        known = ", ".join(sorted(CATALOG))
        raise InvalidArgumentError(f"unknown system id {system_id!r}; known ids: {known}") from None


def sample_parameters(system: OdeSystem, n: int, seed: int) -> list[ParameterDraw]:
    """Draw ``n`` parameter vectors uniformly from the system's box.

    A pure function of (system, n, seed): repeated calls return identical
    draws.
    """
    if n < 1:
        raise InvalidArgumentError("sample_parameters: n must be >= 1")
    rng = substream(seed, "params", system.id)
    u = rng.random((n, system.param_dim))
    thetas = system.param_lo + u * (system.param_hi - system.param_lo)
    return [ParameterDraw(system_id=system.id, theta=t) for t in thetas]


def basis_matrix(system: OdeSystem, states: np.ndarray) -> np.ndarray:
    """Stack basis evaluations into the N x (T*d) design used by closed form.

    Row i holds phi_i(x) = field(e_i, x) evaluated at every grid state,
    flattened time-major then state-component — the same order as
    flattening the (T, d) state array itself.  A (K, T, d) stack of
    trajectories gives the (K, N, T*d) stack of their designs.  Each row
    comes from one field call over all K trajectories.
    """
    if not system.linear:
        raise UnsupportedOperationError(f"{system.id}: field is not declared linear in theta")
    states = np.asarray(states, dtype=float)
    if states.ndim not in (2, 3) or states.shape[-1] != system.state_dim:
        raise InvalidArgumentError(
            f"basis_matrix: states must have shape (T, {system.state_dim}) or "
            f"(K, T, {system.state_dim}), got {states.shape}"
        )
    n = system.param_dim
    lead = states.shape[:-2]
    phi = np.empty((*lead, n, states.shape[-2] * states.shape[-1]))
    for i, unit in enumerate(np.eye(n)):
        phi[..., i, :] = system.field(unit, states).reshape(*lead, -1)
    return phi
