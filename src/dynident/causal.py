"""Downstream evaluation: probes from latents to parameters, and causal effects.

Two kinds of tooling live here.

*Probes* measure what a latent representation carries: a multinomial
logistic classifier (:func:`partition_accuracy`) for discrete experiment
labels, and kernel ridge regression with an RBF kernel
(:func:`latent_r2`) for continuous parameter targets.  Both evaluate on a
held-out split so that a sufficiently flexible probe cannot fake skill.

*Effect estimation* is an augmented inverse-propensity-weighted (AIPW)
estimator of an average treatment effect with plug-in nuisance models — a
logistic propensity and per-arm ridge outcome regressions.  The estimator is
doubly robust: it stays consistent when either nuisance model is correct.
A small synthetic generator with known ground truth rounds out the module.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import DegenerateLabelsError, InvalidArgumentError
from .seeding import substream

_STD_FLOOR = 1e-8


def _as_2d_features(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] < 2:
        raise InvalidArgumentError("features must be (n, f) with n >= 2")
    if not np.all(np.isfinite(x)):
        raise InvalidArgumentError("features contain non-finite values")
    return x


def _positive_finite(name: str, value) -> float:
    value = float(value)
    if not (np.isfinite(value) and value > 0.0):
        raise InvalidArgumentError(f"{name} must be finite and > 0, got {value}")
    return value


def _open_unit(name: str, value) -> float:
    value = float(value)
    if not 0.0 < value < 1.0:
        raise InvalidArgumentError(f"{name} must lie in (0, 1), got {value}")
    return value


def _standardizer(train: np.ndarray):
    mean = train.mean(axis=0)
    std = np.maximum(train.std(axis=0), _STD_FLOOR)
    return lambda z: (z - mean) / std


# ---------------------------------------------------------------------------
# Multinomial logistic regression (damped Newton, step halving).
# ---------------------------------------------------------------------------


@dataclass
class LogisticModel:
    classes: np.ndarray  # (K,) original label values
    weights: np.ndarray  # (f + 1, K), last row is the bias
    feat_mean: np.ndarray
    feat_std: np.ndarray


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def logistic_fit(
    features,
    labels,
    l2: float = 1e-4,
    max_iter: int = 500,
) -> LogisticModel:
    """Multinomial logistic regression on standardized features.

    Minimizes the mean log-loss plus ``l2 * ||W[:-1]||^2`` (the bias row is
    not penalized) by damped Newton steps from zero weights.  Each step is
    halved until the penalized loss does not increase, so the loss sequence
    is non-increasing and the fit is deterministic.  The fit stops when the
    Newton decrement or the gain becomes negligible; ``max_iter`` only caps
    a fit that does neither.  ``l2`` must be finite and positive: it makes
    the optimum unique even when the classes are separable.
    """
    l2 = _positive_finite("l2", l2)
    x = _as_2d_features(features)
    y = np.asarray(labels)
    if y.shape != (x.shape[0],):
        raise InvalidArgumentError("labels must be (n,) matching the feature rows")
    classes, y_idx = np.unique(y, return_inverse=True)
    if classes.size < 2:
        raise DegenerateLabelsError("labels contain a single class")

    mean = x.mean(axis=0)
    std = np.maximum(x.std(axis=0), _STD_FLOOR)
    xs = np.concatenate([(x - mean) / std, np.ones((x.shape[0], 1))], axis=1)
    n, fp1 = xs.shape
    k = classes.size
    onehot = np.zeros((n, k))
    onehot[np.arange(n), y_idx] = 1.0
    # The Hessian is ordered class-major: entry (c, f) is W[f, c].  The loss
    # does not change when one constant is added to every class bias, so
    # the Hessian is singular along that direction.  A ones block on the
    # bias entries removes the singularity without changing the step, which
    # is orthogonal to that direction like the gradient; the class biases
    # keep summing to 0.
    curvature = np.diag(np.tile(np.r_[np.full(fp1 - 1, 2.0 * l2), 0.0], k))
    bias = np.arange(k) * fp1 + fp1 - 1
    curvature[np.ix_(bias, bias)] += 1.0

    w = np.zeros((fp1, k))

    def loss_of(wm):
        """The penalized loss at ``wm`` and the class probabilities behind it."""
        p = _softmax(xs @ wm)
        nll = -np.log(np.maximum(p[np.arange(n), y_idx], 1e-300)).mean()
        return nll + l2 * np.sum(wm[:-1] ** 2), p

    loss, p = loss_of(w)
    for _ in range(max_iter):
        grad = xs.T @ (p - onehot) / n
        grad[:-1] += 2.0 * l2 * w[:-1]
        # Block (c, e) of the Hessian weighs row i by p_ic (delta_ce - p_ie).
        hess = np.block(
            [[xs.T @ (xs * (p[:, [c]] * ((c == e) - p[:, [e]]))) for e in range(k)]
             for c in range(k)]
        ) / n + curvature
        step = np.linalg.solve(hess, -grad.T.ravel()).reshape(k, fp1).T
        # Half the Newton decrement estimates the loss still to be gained.
        if -0.5 * np.sum(grad * step) <= 1e-16 * (1.0 + loss):
            break
        t = 1.0
        while True:
            w_new = w + t * step
            loss_new, p_new = loss_of(w_new)
            if loss_new <= loss or t < 1e-12:
                break
            t *= 0.5
        if t < 1e-12:
            break
        # The accepted step's probabilities are the next gradient's.
        w, p, gain, loss = w_new, p_new, loss - loss_new, loss_new
        if gain <= 1e-16 * (1.0 + loss):
            break
    return LogisticModel(classes=classes, weights=w, feat_mean=mean, feat_std=std)


def logistic_predict_proba(model: LogisticModel, features) -> np.ndarray:
    x = _as_2d_features(features)
    xs = np.concatenate(
        [(x - model.feat_mean) / model.feat_std, np.ones((x.shape[0], 1))], axis=1
    )
    return _softmax(xs @ model.weights)


def logistic_predict(model: LogisticModel, features) -> np.ndarray:
    return model.classes[np.argmax(logistic_predict_proba(model, features), axis=1)]


# ---------------------------------------------------------------------------
# Held-out probes.
# ---------------------------------------------------------------------------


def _split(n: int, seed: int, held_fraction: float) -> tuple[np.ndarray, np.ndarray]:
    n_test = max(1, int(round(held_fraction * n)))
    if n_test >= n:
        raise InvalidArgumentError("not enough rows for a train/test split")
    perm = substream(seed, "probe-split").permutation(n)
    return perm[n_test:], perm[:n_test]


def partition_accuracy(features, labels, seed: int, test_fraction: float = 0.2) -> float:
    """Held-out accuracy of a logistic probe predicting discrete labels.

    A single-class target is trivially predictable: the probe returns 1.0
    and warns rather than failing, so callers can still rank degenerate runs.
    """
    test_fraction = _open_unit("test_fraction", test_fraction)
    x = _as_2d_features(features)
    y = np.asarray(labels)
    if y.shape != (x.shape[0],):
        raise InvalidArgumentError("labels must be (n,) matching the feature rows")
    if np.unique(y).size < 2:
        warnings.warn("partition_accuracy: single-class labels, returning 1.0")
        return 1.0
    tr, te = _split(x.shape[0], seed, test_fraction)
    if np.unique(y[tr]).size < 2:
        warnings.warn("partition_accuracy: single-class training split, returning 1.0")
        return 1.0
    model = logistic_fit(x[tr], y[tr])
    return float(np.mean(logistic_predict(model, x[te]) == y[te]))


def partition_accuracy_matrix(latents, layout, factor_labels, seed: int) -> np.ndarray:
    """Accuracy of every latent block against every discrete factor.

    ``layout`` is a block layout exposing ``block_sizes`` and
    ``block_indices(b)``; ``factor_labels`` is (n,) or (n, n_factors) of
    class ids.  Entry (b, f) is the held-out ``partition_accuracy`` of a
    logistic probe restricted to block ``b`` predicting factor ``f``.
    """
    x = _as_2d_features(latents)
    y = np.asarray(factor_labels)
    if y.ndim == 1:
        y = y[:, None]
    if y.shape[0] != x.shape[0]:
        raise InvalidArgumentError("factor labels must match the latent rows")
    out = np.empty((len(layout.block_sizes), y.shape[1]))
    for b in range(len(layout.block_sizes)):
        cols = list(layout.block_indices(b))
        for f in range(y.shape[1]):
            out[b, f] = partition_accuracy(x[:, cols], y[:, f], seed=seed)
    return out


def latent_r2(
    features,
    targets,
    seed: int,
    train_fraction: float = 0.8,
    ridge: float = 1e-3,
) -> float:
    """Held-out R^2 of RBF kernel ridge regression from features to targets.

    The bandwidth follows the median heuristic — twice the median pairwise
    squared distance between (standardized) training rows — and the ridge
    term is ``ridge * I`` on the kernel matrix, which keeps that matrix
    positive definite, so the system is solved by Cholesky; ``ridge`` must be
    finite and > 0, and ``train_fraction`` must lie in (0, 1).  Multi-column
    targets are scored per column and averaged.
    R^2 is computed against the held-out mean, so a useless probe scores
    around zero (possibly below) and a perfect one scores 1.
    """
    train_fraction = _open_unit("train_fraction", train_fraction)
    ridge = _positive_finite("ridge", ridge)
    x = _as_2d_features(features)
    y = np.asarray(targets, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    if y.shape[0] != x.shape[0]:
        raise InvalidArgumentError("targets must match the feature rows")
    tr, te = _split(x.shape[0], seed, 1.0 - train_fraction)
    stdz = _standardizer(x[tr])
    xtr, xte = stdz(x[tr]), stdz(x[te])

    sq_tr = np.sum(xtr**2, axis=1)
    d_tr = sq_tr[:, None] + sq_tr[None, :] - 2.0 * (xtr @ xtr.T)
    np.maximum(d_tr, 0.0, out=d_tr)
    # k(a, b) = exp(-||a-b||^2 / (2 * median ||a-b||^2)), the classic form.
    bandwidth = max(2.0 * float(np.median(d_tr)), 1e-12)
    # The kernel overwrites the distances: d_tr is not needed again.
    k_tr = np.exp(np.divide(d_tr, -bandwidth, out=d_tr), out=d_tr)
    k_tr[np.diag_indices_from(k_tr)] += ridge

    y_mean = y[tr].mean(axis=0)
    factor = cho_factor(k_tr, overwrite_a=True, check_finite=False)
    alpha = cho_solve(factor, y[tr] - y_mean, check_finite=False)

    sq_te = np.sum(xte**2, axis=1)
    d_te = sq_te[:, None] + sq_tr[None, :] - 2.0 * (xte @ xtr.T)
    np.maximum(d_te, 0.0, out=d_te)
    pred = np.exp(-d_te / bandwidth) @ alpha + y_mean

    resid = np.sum((y[te] - pred) ** 2, axis=0)
    total = np.sum((y[te] - y[te].mean(axis=0)) ** 2, axis=0)
    if np.any(total < 1e-12):
        warnings.warn("latent_r2: (near-)constant target column, returning 0.0")
        return 0.0
    return float(np.mean(1.0 - resid / total))


# ---------------------------------------------------------------------------
# AIPW average treatment effect.
# ---------------------------------------------------------------------------


@dataclass
class AteResult:
    ate_hat: float
    se_hat: float
    n: int
    warnings: tuple = ()


def _ridge_regression(x: np.ndarray, y: np.ndarray, l2: float = 1e-3) -> np.ndarray:
    """Coefficients for standardized-x ridge with an unpenalized intercept."""
    xs = np.concatenate([x, np.ones((x.shape[0], 1))], axis=1)
    gram = xs.T @ xs
    penalty = l2 * np.eye(xs.shape[1])
    penalty[-1, -1] = 0.0
    return np.linalg.solve(gram + penalty, xs.T @ y)


def aipw_ate(
    covariates,
    treatment,
    outcome,
    *,
    propensities: Optional[np.ndarray] = None,
    outcome_means: Optional[tuple] = None,
    clip: tuple = (0.01, 0.99),
) -> AteResult:
    """Doubly robust ATE with influence-function standard error.

    Nuisances default to plug-in fits on the full sample — a logistic
    propensity model and per-arm ridge regressions — and either can be
    overridden (``propensities`` as P(T=1|x); ``outcome_means`` as a
    ``(mu0, mu1)`` pair of per-row predictions), which is also how the
    double-robustness property is exercised in tests.  Propensities are
    clipped to ``clip``; if more than 20% of rows get clipped, a positivity
    warning is recorded on the result and emitted.
    """
    lo, hi = (float(c) for c in clip)
    if not 0.0 < lo < hi < 1.0:
        raise InvalidArgumentError(f"clip must satisfy 0 < lo < hi < 1, got {clip}")
    x = _as_2d_features(covariates)
    t = np.asarray(treatment)
    y = np.asarray(outcome, dtype=float)
    n = x.shape[0]
    if t.shape != (n,) or y.shape != (n,):
        raise InvalidArgumentError("treatment and outcome must be (n,) vectors")
    if not set(np.unique(t)) <= {0, 1}:
        raise InvalidArgumentError("treatment must be binary 0/1")
    t = t.astype(int)
    if t.min() == t.max():
        raise DegenerateLabelsError("aipw_ate: need both treated and control rows")
    if n < 50:
        raise InvalidArgumentError("aipw_ate: need n >= 50 rows for a stable fit")

    notes = []
    if propensities is None:
        pmodel = logistic_fit(x, t)
        # Column of class "1" in the fitted class ordering.
        col = int(np.flatnonzero(pmodel.classes == 1)[0])
        e_raw = logistic_predict_proba(pmodel, x)[:, col]
    else:
        e_raw = np.asarray(propensities, dtype=float)
        if e_raw.shape != (n,):
            raise InvalidArgumentError("propensities must be (n,)")
    e = np.clip(e_raw, lo, hi)
    frac_clipped = float(np.mean((e_raw < lo) | (e_raw > hi)))
    if frac_clipped > 0.20:
        msg = (
            f"aipw_ate: {frac_clipped:.0%} of propensities clipped to [{lo}, {hi}]; "
            "overlap between arms is weak"
        )
        notes.append(msg)
        warnings.warn(msg)

    if outcome_means is None:
        stdz = _standardizer(x)
        xs = stdz(x)
        ones = np.ones((n, 1))
        beta0 = _ridge_regression(xs[t == 0], y[t == 0])
        beta1 = _ridge_regression(xs[t == 1], y[t == 1])
        design = np.concatenate([xs, ones], axis=1)
        mu0 = design @ beta0
        mu1 = design @ beta1
    else:
        mu0, mu1 = (np.asarray(m, dtype=float) for m in outcome_means)
        if mu0.shape != (n,) or mu1.shape != (n,):
            raise InvalidArgumentError("outcome_means must be a pair of (n,) vectors")

    psi = mu1 - mu0 + t * (y - mu1) / e - (1 - t) * (y - mu0) / (1.0 - e)
    ate = float(psi.mean())
    se = float(psi.std(ddof=1) / np.sqrt(n))
    return AteResult(ate_hat=ate, se_hat=se, n=n, warnings=tuple(notes))


def ate_trend(ates: Sequence, isotonic: bool = False) -> np.ndarray:
    """Change ratios (ATE_t - ATE_0) / ATE_0 along a sequence of effects.

    Accepts floats or :class:`AteResult` entries.  With ``isotonic=True``
    the ratio series is replaced by its least-squares monotone projection
    (pool adjacent violators), oriented by the sign of the net change —
    useful for reading a drift direction out of a noisy series.
    """
    values = np.array(
        [a.ate_hat if isinstance(a, AteResult) else float(a) for a in ates],
        dtype=float,
    )
    if values.size < 2:
        raise InvalidArgumentError("ate_trend: need at least two effect estimates")
    if abs(values[0]) < 1e-12:
        raise InvalidArgumentError("ate_trend: baseline effect is (near) zero")
    ratios = (values - values[0]) / values[0]
    if not isotonic:
        return ratios
    flip = ratios[-1] < ratios[0]
    seq = -ratios if flip else ratios
    fitted = _pool_adjacent_violators(seq)
    return -fitted if flip else fitted


def _pool_adjacent_violators(seq: np.ndarray) -> np.ndarray:
    """L2 projection onto non-decreasing sequences (uniform weights)."""
    means = list(seq.astype(float))
    counts = [1] * len(means)
    i = 0
    while i < len(means) - 1:
        if means[i] <= means[i + 1] + 1e-15:
            i += 1
            continue
        total = means[i] * counts[i] + means[i + 1] * counts[i + 1]
        counts[i] += counts[i + 1]
        means[i] = total / counts[i]
        del means[i + 1], counts[i + 1]
        if i > 0:
            i -= 1
    return np.repeat(means, counts)


# ---------------------------------------------------------------------------
# Synthetic benchmark with known ground truth.
# ---------------------------------------------------------------------------


@dataclass
class CausalDataset:
    covariates: np.ndarray  # (n, 3)
    treatment: np.ndarray  # (n,) in {0, 1}
    outcome: np.ndarray  # (n,)
    true_ate: float
    scenario: str


_OUTCOME_COEF = np.array([1.0, -0.5, 0.25])
_CONFOUND_COEF = np.array([1.2, 0.9, -0.7])


def synthetic_causal_dataset(n: int, seed: int, scenario: str = "randomized") -> CausalDataset:
    """Linear-outcome benchmark with a constant treatment effect.

    ``randomized``: T is a fair coin independent of X, true ATE 2.0.
    ``confounded``: P(T=1|x) follows a logistic in X, so the naive
    difference of means is biased while the truth is 1.5.
    """
    if scenario not in ("randomized", "confounded"):
        raise InvalidArgumentError(f"unknown scenario {scenario!r}")
    if n < 10:
        raise InvalidArgumentError("synthetic_causal_dataset: n must be >= 10")
    rng = substream(seed, "causal-bench", scenario)
    x = rng.standard_normal((n, 3))
    if scenario == "randomized":
        p = np.full(n, 0.5)
        tau = 2.0
    else:
        p = 1.0 / (1.0 + np.exp(-(x @ _CONFOUND_COEF)))
        tau = 1.5
    t = (rng.uniform(size=n) < p).astype(int)
    noise = rng.standard_normal(n)
    y = x @ _OUTCOME_COEF + tau * t + noise
    return CausalDataset(
        covariates=x, treatment=t, outcome=y, true_ate=tau, scenario=scenario
    )


__all__ = [
    "LogisticModel",
    "logistic_fit",
    "logistic_predict",
    "logistic_predict_proba",
    "partition_accuracy",
    "latent_r2",
    "AteResult",
    "aipw_ate",
    "ate_trend",
    "CausalDataset",
    "synthetic_causal_dataset",
]
