"""Downstream causal readouts: doubly robust ATE and effect drift.

Once a latent representation (or any covariate set) is in hand, the
questions become statistical: what is the average treatment effect, does
the estimator survive confounding, and is the effect drifting over time?
This script exercises the AIPW estimator on the built-in synthetic
benchmark — naive difference of means vs. AIPW under confounding, the
double-robustness property (one broken nuisance at a time), and a
constructed effect drift read back out with `ate_trend`.
"""

import numpy as np

from dynident import aipw_ate, ate_trend, synthetic_causal_dataset


def main():
    n = 4000

    for scenario in ("randomized", "confounded"):
        ds = synthetic_causal_dataset(n, 29, scenario)
        naive = ds.outcome[ds.treatment == 1].mean() - ds.outcome[ds.treatment == 0].mean()
        res = aipw_ate(ds.covariates, ds.treatment, ds.outcome)
        print(f"{scenario} (true ATE {ds.true_ate}):")
        print(f"  naive difference of means: {naive:+.3f}  (error {naive - ds.true_ate:+.3f})")
        print(
            f"  AIPW: {res.ate_hat:+.3f} ± {res.se_hat:.3f}  "
            f"(error {res.ate_hat - ds.true_ate:+.3f})"
        )

    print("\ndouble robustness (confounded data, one nuisance broken at a time):")
    ds = synthetic_causal_dataset(n, 29, "confounded")
    broken_prop = aipw_ate(
        ds.covariates, ds.treatment, ds.outcome, propensities=np.full(n, 0.5)
    )
    zeros = np.zeros(n)
    broken_outcome = aipw_ate(
        ds.covariates, ds.treatment, ds.outcome, outcome_means=(zeros, zeros)
    )
    print(f"  constant-0.5 propensities, good outcome model: {broken_prop.ate_hat:+.3f}")
    print(f"  zero outcome model, good propensities:         {broken_outcome.ate_hat:+.3f}")
    print(f"  (both should stay near the true {ds.true_ate})")

    print("\neffect drift: inject a growing effect and read the trend back:")
    deltas = (0.0, 0.3, 0.6, 0.9)
    ates = []
    for d in deltas:
        ds_t = synthetic_causal_dataset(n, 29, "confounded")
        shifted = ds_t.outcome + d * ds_t.treatment
        ates.append(aipw_ate(ds_t.covariates, ds_t.treatment, shifted))
    ratios = ate_trend(ates)
    truth = [d / ds.true_ate for d in deltas]
    print(f"  injected change ratios:  {np.round(truth, 3)}")
    print(f"  recovered change ratios: {np.round(ratios, 3)}")


if __name__ == "__main__":
    main()
