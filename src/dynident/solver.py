"""Fixed-step integration and trajectory preprocessing.

The integrator is classical RK4 with a fixed internal step: every interval
between requested grid points is split into equal sub-steps no longer than
``h_int``, so grid points are always hit exactly (no interpolation).  The
default ``h_int`` is the horizon over 1000, whatever the grid density; the
test suite holds its justification (a step-doubling error estimate at most
1e-7 relative to scale for every catalog system) and a self-convergence
check under step halving, whose error-ratio window for a fourth-order
method is roughly 16.

Besides integration this module provides second-order finite-difference
derivative estimation, per-channel orthonormal DCT truncation/expansion for
trajectory compression, and persistence of trajectory sets in the archive
format of :mod:`dynident.archive`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.fft import dct as _dct, idct as _idct

from .archive import (
    _TRAJECTORIES_KIND,
    _grid_from_record,
    _grid_record,
    _read_archive,
    _write_archive,
)
from .errors import DivergenceError, FileFormatError, InvalidArgumentError, require_int
from .systems import OdeSystem

#: Euclidean state norm beyond which integration is declared divergent.
OVERFLOW_GUARD = 1e8

#: Default number of RK4 steps over [t0, t_max].  Each grid interval takes at
#: least one step, so a grid of more than 1000 intervals takes one per interval.
_STEPS_PER_HORIZON = 1000


@dataclass
class TimeGrid:
    """Strictly increasing evaluation times, endpoints included."""

    t0: float
    t_max: float
    points: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 1 or self.points.size < 2:
            raise InvalidArgumentError("TimeGrid: need at least two grid points")
        if not np.all(np.diff(self.points) > 0):
            raise InvalidArgumentError("TimeGrid: points must be strictly increasing")
        if self.points[0] != self.t0 or self.points[-1] != self.t_max:
            raise InvalidArgumentError("TimeGrid: endpoints must match t0 and t_max")

    @classmethod
    def uniform(cls, t0: float, t_max: float, n_points: int) -> "TimeGrid":
        n_points = require_int(n_points, "n_points")
        if n_points < 2:
            raise InvalidArgumentError("TimeGrid.uniform: n_points must be >= 2")
        if not t_max > t0:
            raise InvalidArgumentError("TimeGrid.uniform: t_max must exceed t0")
        pts = np.linspace(float(t0), float(t_max), n_points)
        return cls(t0=float(t0), t_max=float(t_max), points=pts)

    @property
    def n_points(self) -> int:
        return int(self.points.size)

    @property
    def spacing(self) -> float:
        """Uniform spacing; raises if the grid is not uniform."""
        diffs = np.diff(self.points)
        h = diffs[0]
        if not np.allclose(diffs, h, rtol=1e-9, atol=0.0):
            raise InvalidArgumentError("grid is not uniform")
        return float(h)


def _require_finite(values: np.ndarray, what: str) -> None:
    """Raise :class:`InvalidArgumentError` naming ``what`` unless every entry is finite."""
    if not np.all(np.isfinite(values)):
        raise InvalidArgumentError(f"{what} contain non-finite values")


@dataclass
class Trajectory:
    """An integrated (or observed) path of one system.

    ``states`` and ``derivs`` must be finite.  ``theta_truth`` is the
    generating parameter vector when known; estimators receive trajectories
    and must not read it — it exists for scoring.
    """

    system_id: str
    grid: TimeGrid
    states: np.ndarray
    derivs: Optional[np.ndarray] = None
    theta_truth: Optional[np.ndarray] = None

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=float)
        if self.states.ndim != 2 or self.states.shape[0] != self.grid.n_points:
            raise InvalidArgumentError(
                f"Trajectory: states must have shape (T, d) with T = {self.grid.n_points}"
            )
        _require_finite(self.states, f"Trajectory of {self.system_id}: states")
        if self.derivs is not None:
            self.derivs = np.asarray(self.derivs, dtype=float)
            if self.derivs.shape != self.states.shape:
                raise InvalidArgumentError("Trajectory: derivs shape must match states")
            _require_finite(self.derivs, f"Trajectory of {self.system_id}: derivs")
        if self.theta_truth is not None:
            self.theta_truth = np.asarray(self.theta_truth, dtype=float)


def default_h_int(grid: TimeGrid) -> float:
    """Default internal step: (t_max - t0) / 1000, whatever the grid's point count."""
    return (grid.t_max - grid.t0) / _STEPS_PER_HORIZON


def _substep_plan(grid: TimeGrid, h_int: float) -> list[tuple[float, int]]:
    plan = []
    for delta in np.diff(grid.points):
        n_sub = max(1, int(np.ceil(delta / h_int - 1e-12)))
        plan.append((delta / n_sub, n_sub))
    return plan


def integrate_batch(
    system: OdeSystem,
    thetas: np.ndarray,
    x0s: np.ndarray,
    grid: TimeGrid,
    h_int: Optional[float] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Integrate many parameter draws of one system in lockstep.

    Parameters
    ----------
    thetas : (B, N) array
    x0s : (B, d) or (d,) array
        A single initial condition broadcasts over the batch.
    grid, h_int
        As in :func:`integrate`.

    Returns
    -------
    states : (B, T, d) array
    derivs : (B, T, d) array
        Vector field evaluated at each grid state (exact derivatives).
    ok : (B,) bool array
        False where the state norm crossed the overflow guard or went
        non-finite; such rows hold NaN from the first bad grid point on.
    first_bad_time : (B,) array
        Time at which each failed row first went bad (NaN for healthy rows).
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    if thetas.shape[1] != system.param_dim:
        raise InvalidArgumentError(
            f"integrate_batch: thetas must have shape (B, {system.param_dim})"
        )
    n_batch = thetas.shape[0]
    x0s = np.asarray(x0s, dtype=float)
    if x0s.ndim == 1:
        x0s = np.broadcast_to(x0s, (n_batch, system.state_dim))
    if x0s.shape != (n_batch, system.state_dim):
        raise InvalidArgumentError("integrate_batch: x0s shape mismatch")
    if h_int is None:
        h_int = default_h_int(grid)
    if not (np.isfinite(h_int) and h_int > 0):
        raise InvalidArgumentError("integrate_batch: h_int must be positive")

    n_pts = grid.n_points
    states = np.full((n_batch, n_pts, system.state_dim), np.nan)
    ok = np.ones(n_batch, dtype=bool)
    first_bad_time = np.full(n_batch, np.nan)

    x = x0s.astype(float).copy()
    states[:, 0] = x
    guard_sq = OVERFLOW_GUARD**2

    def _flag_bad(t_now: float) -> None:
        sq = np.einsum("bd,bd->b", x, x)
        bad_now = ~np.isfinite(sq) | (sq > guard_sq)
        newly = bad_now & ok
        if np.any(newly):
            ok[newly] = False
            first_bad_time[newly] = t_now
            # Park bad rows at the origin so further arithmetic stays quiet.
            x[bad_now] = 0.0

    f = system.field
    # The guard is checked at grid points: an overflow between them turns the
    # state non-finite, which the next check catches.
    with np.errstate(all="ignore"):
        _flag_bad(grid.points[0])
        for k, (h, n_sub) in enumerate(_substep_plan(grid, h_int)):
            h_half, h_sixth = 0.5 * h, h / 6.0
            for _ in range(n_sub):
                k1 = f(thetas, x)
                k2 = f(thetas, x + h_half * k1)
                k3 = f(thetas, x + h_half * k2)
                k4 = f(thetas, x + h * k3)
                x = x + h_sixth * (k1 + 2.0 * (k2 + k3) + k4)
            _flag_bad(grid.points[k + 1])
            states[ok, k + 1] = x[ok]

    with np.errstate(all="ignore"):
        derivs = f(thetas[:, None, :], states)
    derivs[~ok] = np.nan
    return states, derivs, ok, first_bad_time


def integrate(
    system: OdeSystem,
    theta: np.ndarray,
    x0: Optional[np.ndarray] = None,
    grid: Optional[TimeGrid] = None,
    h_int: Optional[float] = None,
) -> Trajectory:
    """Integrate ``x' = f(theta, x)`` over a grid with fixed-step RK4.

    Parameters
    ----------
    theta : (N,) array
    x0 : (d,) array, optional
        Defaults to the catalog initial condition.
    grid : TimeGrid, optional
        Defaults to 100 uniform points over [0, t_max].
    h_int : float, optional
        Internal step bound; defaults to (t_max - t0) / 1000
        (:func:`default_h_int`).

    Returns
    -------
    Trajectory
        With ``derivs`` populated by evaluating the field at each grid state
        and ``theta_truth`` set to ``theta``.

    Raises
    ------
    DivergenceError
        If the state norm exceeds 1e8 or the state goes non-finite; carries
        the first bad time.  It is a :class:`NumericDomainError`.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (system.param_dim,):
        raise InvalidArgumentError(f"integrate: theta must have shape ({system.param_dim},)")
    if not np.all(np.isfinite(theta)):
        raise InvalidArgumentError("integrate: theta must be finite")
    if x0 is None:
        x0 = system.x0
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (system.state_dim,):
        raise InvalidArgumentError(f"integrate: x0 must have shape ({system.state_dim},)")
    if grid is None:
        grid = TimeGrid.uniform(0.0, system.t_max, 100)

    states, derivs, ok, bad_times = integrate_batch(
        system, theta[None, :], x0[None, :], grid, h_int
    )
    if not ok[0]:
        t_bad = float(bad_times[0])
        raise DivergenceError(
            f"{system.id}: state norm exceeded {OVERFLOW_GUARD:.0e} "
            f"(or went non-finite) at t = {t_bad:.6g}",
            time=t_bad,
        )
    return Trajectory(
        system_id=system.id,
        grid=grid,
        states=states[0],
        derivs=derivs[0],
        theta_truth=theta.copy(),
    )


def estimate_derivatives(trajectory: Trajectory) -> np.ndarray:
    """Second-order finite-difference derivatives on a uniform grid.

    Central differences in the interior, one-sided second-order stencils at
    the two endpoints.  Requires at least three grid points.
    """
    if trajectory.grid.n_points < 3:
        raise InvalidArgumentError("estimate_derivatives: need at least 3 grid points")
    h = trajectory.grid.spacing  # validates uniformity
    y = trajectory.states
    out = np.empty_like(y)
    out[1:-1] = (y[2:] - y[:-2]) / (2.0 * h)
    out[0] = (-3.0 * y[0] + 4.0 * y[1] - y[2]) / (2.0 * h)
    out[-1] = (3.0 * y[-1] - 4.0 * y[-2] + y[-3]) / (2.0 * h)
    return out


def dct_truncate(states: np.ndarray, keep_fraction: float) -> np.ndarray:
    """Orthonormal DCT-II per channel, truncated to the lowest frequencies.

    ``states`` is one (T, d) trajectory or an (n, T, d) batch; the transform
    runs along the time axis and keeps ``ceil(keep_fraction * T)``
    coefficients per channel.
    """
    states = np.asarray(states, dtype=float)
    if states.ndim not in (2, 3):
        raise InvalidArgumentError("dct_truncate: states must be a (T, d) or (n, T, d) array")
    if not 0.0 < keep_fraction <= 1.0:
        raise InvalidArgumentError("dct_truncate: keep_fraction must be in (0, 1]")
    n_keep = int(np.ceil(keep_fraction * states.shape[-2]))
    coeffs = _dct(states, type=2, norm="ortho", axis=-2)
    return coeffs[..., :n_keep, :]


def idct_expand(coeffs: np.ndarray, n_points: int) -> np.ndarray:
    """Inverse of :func:`dct_truncate`: zero-pad to T rows and invert."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 2:
        raise InvalidArgumentError("idct_expand: coeffs must be a 2-d array")
    if n_points < coeffs.shape[0]:
        raise InvalidArgumentError("idct_expand: n_points is smaller than the coefficient count")
    padded = np.zeros((n_points, coeffs.shape[1]))
    padded[: coeffs.shape[0]] = coeffs
    return _idct(padded, type=2, norm="ortho", axis=0)


# ---------------------------------------------------------------------------
# Persistence: a ``trajectories`` archive (see :mod:`dynident.archive`).
# ---------------------------------------------------------------------------


def save_trajectories(path, trajectories: Sequence[Trajectory]) -> None:
    """Write trajectories of one system on one uniform grid as a
    ``trajectories`` archive: float64 ``states`` (n, T, d) and, when the
    trajectories carry them, ``derivs`` (n, T, d) and ``thetas`` (n, N).

    Raises :class:`InvalidArgumentError` for an empty list, a list that
    mixes systems, grids or shapes, and a list where only some trajectories
    carry ``derivs`` or ``theta_truth``.
    """
    if not trajectories:
        raise InvalidArgumentError("save_trajectories: no trajectories to save")
    system_id, grid = trajectories[0].system_id, trajectories[0].grid
    grid.spacing  # refuses a non-uniform grid, which the grid record cannot hold
    for traj in trajectories:
        if traj.system_id != system_id or not np.array_equal(traj.grid.points, grid.points):
            raise InvalidArgumentError("save_trajectories: the trajectories mix systems or grids")
    arrays = {}
    for name, attr in (("states", "states"), ("derivs", "derivs"), ("thetas", "theta_truth")):
        values = [getattr(t, attr) for t in trajectories]
        if any(v is None for v in values):
            if any(v is not None for v in values):
                raise InvalidArgumentError(f"save_trajectories: some trajectories lack {attr}")
        elif len({v.shape for v in values}) > 1:
            raise InvalidArgumentError(f"save_trajectories: {attr} differ in shape")
        else:
            arrays[name] = np.stack(values)
    meta = {
        "system_id": system_id,
        "grid": _grid_record(grid),
        "n_trajectories": len(trajectories),
        "has_derivs": "derivs" in arrays,
        "has_thetas": "thetas" in arrays,
    }
    _write_archive(path, _TRAJECTORIES_KIND, meta, arrays)


def load_trajectories(path) -> list[Trajectory]:
    """Read trajectories written by :func:`save_trajectories`; raises
    :class:`FileFormatError` naming ``path`` for any other file."""
    meta, arrays = _read_archive(path, _TRAJECTORIES_KIND)
    states, derivs, thetas = (arrays.get(name) for name in ("states", "derivs", "thetas"))
    try:
        n, flags = meta["n_trajectories"], (meta["has_derivs"], meta["has_thetas"])
        if flags != (derivs is not None, thetas is not None) or any(
            len(a) != n for a in arrays.values()
        ):
            raise ValueError("the arrays disagree with n_trajectories, has_derivs or has_thetas")
        if thetas is not None and thetas.ndim != 2:
            raise ValueError(f"thetas has shape {thetas.shape}, expected (n, N)")
        if not isinstance(meta["system_id"], str):
            raise ValueError(f"system_id {meta['system_id']!r} is not a string")
        grid = _grid_from_record(meta["grid"])
        return [
            Trajectory(
                meta["system_id"],
                grid,
                states[i],
                derivs=None if derivs is None else derivs[i],
                theta_truth=None if thetas is None else thetas[i],
            )
            for i in range(n)
        ]
    except (LookupError, TypeError, ValueError) as exc:
        raise FileFormatError(f"{path}: malformed trajectories file ({exc})") from exc


__all__ = [
    "OVERFLOW_GUARD",
    "TimeGrid",
    "Trajectory",
    "default_h_int",
    "integrate",
    "integrate_batch",
    "estimate_derivatives",
    "dct_truncate",
    "idct_expand",
    "save_trajectories",
    "load_trajectories",
]
