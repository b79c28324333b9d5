"""Identify the parameters of a known ODE from one observed trajectory.

Walks the three estimators on the SIR epidemic system: the closed-form
least-squares solution (the field is linear in theta), iterative derivative
matching, and full trajectory matching.  All three recover the generating
parameters from a single noiseless trajectory; the printout compares their
errors, then runs the sampled-draw RMSE benchmark on a handful of systems
and renders its report table.
"""

import os
import tempfile

import numpy as np

from dynident import (
    benchmark_rmse,
    fit_closed_form,
    fit_derivative_matching,
    fit_trajectory_matching,
    get_system,
    integrate,
    sample_parameters,
)
from dynident.cli import emit_report


def main():
    system = get_system("ode31")
    truth = sample_parameters(system, 1, seed=5)[0].theta
    print(f"system: {system.name} ({system.id}), d={system.state_dim}, N={system.param_dim}")
    print(f"ground truth theta: {np.round(truth, 6)}")

    traj = integrate(system, truth)
    print(f"observed: {traj.states.shape[0]} points on [0, {system.t_max:g}], "
          f"exact derivatives attached\n")

    fits = {
        "closed form": fit_closed_form(system, traj),
        "derivative matching": fit_derivative_matching(system, traj),
        "trajectory matching": fit_trajectory_matching(system, traj),
    }
    print(f"{'method':<22} {'max |error|':>12} {'iterations':>11} {'converged':>10}")
    for name, res in fits.items():
        err = np.max(np.abs(res.theta_hat - truth))
        print(f"{name:<22} {err:>12.2e} {res.iterations:>11d} {str(res.converged):>10}")

    print("\nsampled-draw benchmark (20 draws each, exact derivatives):")
    reports = benchmark_rmse(["ode2", "ode6", "ode27", "ode31"], 20, "deriv", seed=7)
    with tempfile.TemporaryDirectory() as tmp:
        md_path = os.path.join(tmp, "report.md")
        emit_report(reports, md_path=md_path)
        with open(md_path) as fh:
            print(fh.read())


if __name__ == "__main__":
    main()
