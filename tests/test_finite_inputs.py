"""Non-finite data is refused where it enters the library.

A NaN state, target or outcome once escaped as a bare ``LinAlgError``, an
estimate at the box midpoint, a blamed integration, or a ``nan`` result.
"""

import numpy as np
import pytest

from dynident import (
    ConfigError,
    IdentifierConfig,
    InvalidArgumentError,
    TimeGrid,
    Trajectory,
    aipw_ate,
    benchmark_rmse,
    fit_closed_form,
    fit_derivative_matching,
    fit_trajectory_matching,
    generate_multiview_dataset,
    get_system,
    integrate,
    latent_r2,
)


def _lotka_volterra():
    s = get_system("ode27")
    return s, integrate(s, s.param_midpoint, grid=TimeGrid.uniform(0.0, s.t_max, 40))


def _fit_on_a_nan_state(fit):
    def case():
        s, traj = _lotka_volterra()
        states = traj.states.copy()
        states[7, 1] = np.nan
        fit(s, Trajectory(s.id, traj.grid, states))

    return case


def _latent_r2_on_an_inf_target():
    rng = np.random.default_rng(0)
    targets = rng.standard_normal(60)
    targets[3] = np.inf
    latent_r2(rng.standard_normal((60, 2)), targets, seed=0)


def _aipw_ate_on_a_nan_outcome():
    rng = np.random.default_rng(1)
    outcome = rng.standard_normal(80)
    outcome[5] = np.nan
    aipw_ate(rng.standard_normal((80, 2)), np.arange(80) % 2, outcome)


@pytest.mark.parametrize(
    "case, message",
    [
        (_fit_on_a_nan_state(fit_closed_form), "Trajectory of ode27: states"),
        (_fit_on_a_nan_state(fit_derivative_matching), "Trajectory of ode27: states"),
        (_fit_on_a_nan_state(fit_trajectory_matching), "Trajectory of ode27: states"),
        (_latent_r2_on_an_inf_target, "targets"),
        (_aipw_ate_on_a_nan_outcome, "outcome"),
    ],
    ids=["closed", "deriv", "traj", "latent_r2", "aipw_ate"],
)
def test_non_finite_data_is_refused(case, message):
    with pytest.raises(InvalidArgumentError, match=f"{message} contains? non-finite values"):
        case()


def test_non_finite_derivatives_are_refused_by_trajectories_and_fits():
    s, traj = _lotka_volterra()
    derivs = traj.derivs.copy()
    derivs[0, 0] = -np.inf
    with pytest.raises(InvalidArgumentError, match="Trajectory of ode27: derivs contain"):
        Trajectory(s.id, traj.grid, traj.states, derivs=derivs)
    for fit in (fit_closed_form, fit_derivative_matching):
        with pytest.raises(InvalidArgumentError, match="derivs for ode27 contain"):
            fit(s, traj, derivs=derivs)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_integrate_refuses_a_non_finite_initial_condition(bad):
    s = get_system("ode27")
    with pytest.raises(InvalidArgumentError, match="integrate: x0 must be finite"):
        integrate(s, s.param_midpoint, x0=np.array([1.0, bad]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_settings_are_refused(bad):
    """A non-finite setting fails no ``>=`` check by itself: each one is
    refused by name, before anything is integrated or trained."""
    for key in ("lr", "reg_align"):
        with pytest.raises(ConfigError, match=f"{key}: must be finite"):
            IdentifierConfig(**{key: bad})
    with pytest.raises(InvalidArgumentError, match="noise must be finite"):
        benchmark_rmse(["ode2"], 3, "deriv", seed=0, noise=bad)
    with pytest.raises(InvalidArgumentError, match="shared_prototypes must be a finite"):
        generate_multiview_dataset("ode27", 4, 0, (0, 1), shared_prototypes=[[1.0, bad]])
