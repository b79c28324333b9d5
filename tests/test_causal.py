import numpy as np
import pytest

from dynident.causal import (
    AteResult,
    aipw_ate,
    ate_trend,
    latent_r2,
    logistic_fit,
    logistic_predict,
    logistic_predict_proba,
    partition_accuracy,
    partition_accuracy_matrix,
    synthetic_causal_dataset,
)
from dynident.errors import DegenerateLabelsError, InvalidArgumentError
from dynident.multiview import PartitionLayout
from dynident.seeding import substream


# ---------------------------------------------------------------------------
# Logistic probe.
# ---------------------------------------------------------------------------


def _blobs(rng, centers, n_per):
    xs, ys = [], []
    for k, c in enumerate(centers):
        xs.append(c + 0.3 * rng.standard_normal((n_per, len(c))))
        ys.append(np.full(n_per, k))
    return np.concatenate(xs), np.concatenate(ys)


def test_logistic_separates_well_separated_blobs():
    rng = substream(1, "blobs")
    x, y = _blobs(rng, [(-3.0, 0.0), (3.0, 0.0)], 100)
    model = logistic_fit(x, y)
    assert np.mean(logistic_predict(model, x) == y) == 1.0
    proba = logistic_predict_proba(model, x)
    np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(proba >= 0)


def test_logistic_three_class_accuracy():
    rng = substream(2, "blobs3")
    x, y = _blobs(rng, [(-2.0, 0.0), (2.0, 0.0), (0.0, 2.5)], 150)
    acc = partition_accuracy(x, y, seed=4)
    assert acc >= 0.9


def test_logistic_labels_keep_their_original_values():
    rng = substream(3, "labelvals")
    x, y = _blobs(rng, [(-3.0,), (3.0,)], 50)
    model = logistic_fit(x, y + 7)  # classes {7, 8}
    np.testing.assert_array_equal(model.classes, [7, 8])
    assert set(np.unique(logistic_predict(model, x))) <= {7, 8}


def _logistic_weights_recomputing_softmax(features, labels, l2=1e-4, max_iter=500, lr0=1.0):
    """Gradient descent on the same objective, with the step size halved
    whenever a step would raise the loss: the reference that ``logistic_fit``
    must match or beat."""
    x = np.asarray(features, dtype=float)
    classes, y_idx = np.unique(labels, return_inverse=True)
    mean = x.mean(axis=0)
    std = np.maximum(x.std(axis=0), 1e-8)
    xs = np.concatenate([(x - mean) / std, np.ones((x.shape[0], 1))], axis=1)
    n, fp1 = xs.shape
    onehot = np.zeros((n, classes.size))
    onehot[np.arange(n), y_idx] = 1.0

    def softmax(logits):
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    def loss_of(wm):
        p = softmax(xs @ wm)
        nll = -np.log(np.maximum(p[np.arange(n), y_idx], 1e-300)).mean()
        return nll + l2 * np.sum(wm[:-1] ** 2)

    w = np.zeros((fp1, classes.size))
    loss = loss_of(w)
    lr = float(lr0)
    for _ in range(max_iter):
        p = softmax(xs @ w)
        grad = xs.T @ (p - onehot) / n
        grad[:-1] += 2.0 * l2 * w[:-1]
        while True:
            w_new = w - lr * grad
            loss_new = loss_of(w_new)
            if loss_new <= loss or lr < 1e-12:
                break
            lr *= 0.5
        if lr < 1e-12:
            break
        w, gain, loss = w_new, loss - loss_new, loss_new
        if gain < 1e-10 * (1.0 + abs(loss)):
            break
    return w


def _penalized_loss_and_grad(features, labels, w, l2=1e-4):
    """Mean log-loss plus ``l2 * ||W[:-1]||^2`` and its gradient, at ``w``."""
    x = np.asarray(features, dtype=float)
    _, y_idx = np.unique(labels, return_inverse=True)
    std = np.maximum(x.std(axis=0), 1e-8)
    xs = np.concatenate([(x - x.mean(axis=0)) / std, np.ones((x.shape[0], 1))], axis=1)
    n = xs.shape[0]
    logits = xs @ w
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    onehot = np.zeros_like(p)
    onehot[np.arange(n), y_idx] = 1.0
    grad = xs.T @ (p - onehot) / n
    grad[:-1] += 2.0 * l2 * w[:-1]
    loss = -np.log(p[np.arange(n), y_idx]).mean() + l2 * np.sum(w[:-1] ** 2)
    return loss, grad


@pytest.mark.parametrize(
    "centers", [[(-0.5, 0.2, 0.0), (0.5, -0.2, 0.1)], [(-1.0, 0.0), (1.0, 0.0), (0.0, 1.2)]]
)
def test_logistic_fit_reaches_the_penalized_optimum(centers):
    """Binary and three-class blobs: the fit ends where the penalized
    gradient vanishes, at a loss no higher than gradient descent's, with the
    class biases summing to 0 as they do from the zero start."""
    x, y = _blobs(substream(8, "logistic-reuse"), centers, 120)
    w = logistic_fit(x, y).weights
    loss, grad = _penalized_loss_and_grad(x, y, w)
    want, _ = _penalized_loss_and_grad(x, y, _logistic_weights_recomputing_softmax(x, y))
    assert np.max(np.abs(grad)) <= 1e-8
    assert loss <= want
    assert abs(w[-1].sum()) <= 1e-12


def test_logistic_fit_on_separable_labels_ends_within_50_iterations():
    """Well-separated blobs have no unpenalized optimum; the penalty gives
    one, and Newton's method reaches it long before the cap."""
    x, y = _blobs(substream(1, "blobs"), [(-3.0, 0.0), (3.0, 0.0)], 100)
    w = logistic_fit(x, y, max_iter=50).weights
    assert np.all(np.isfinite(w))
    _, grad = _penalized_loss_and_grad(x, y, w)
    assert np.max(np.abs(grad)) <= 1e-8
    np.testing.assert_array_equal(logistic_fit(x, y).weights, w)


def test_permuted_labels_score_at_chance():
    rng = substream(4, "chance")
    x = rng.standard_normal((600, 3))
    y = rng.integers(0, 2, size=600)
    acc = partition_accuracy(x, y, seed=6)
    assert abs(acc - 0.5) <= 0.1


def test_duplicating_every_row_changes_nothing_material():
    rng = substream(5, "dup")
    x, y = _blobs(rng, [(-1.5, 0.5), (1.5, -0.5)], 80)
    base = logistic_fit(x, y)
    doubled = logistic_fit(np.concatenate([x, x]), np.concatenate([y, y]))
    np.testing.assert_allclose(doubled.weights, base.weights, atol=1e-8)


def test_degenerate_labels():
    rng = substream(6, "degen")
    x = rng.standard_normal((40, 2))
    with pytest.raises(DegenerateLabelsError):
        logistic_fit(x, np.zeros(40))
    with pytest.warns(UserWarning):
        assert partition_accuracy(x, np.zeros(40), seed=0) == 1.0


def test_partition_accuracy_matrix_localizes_information():
    # Latent block 0 carries factor 0, block 1 carries factor 1; the
    # accuracy matrix should be near-diagonal.
    rng = substream(30, "accmat")
    n = 600
    f0 = rng.integers(0, 2, size=n)
    f1 = rng.integers(0, 2, size=n)
    lat = rng.standard_normal((n, 5)) * 0.3
    lat[:, :3] += 2.0 * f0[:, None]
    lat[:, 3:] += 2.0 * f1[:, None]
    layout = PartitionLayout(block_sizes=(3, 2))
    acc = partition_accuracy_matrix(lat, layout, np.stack([f0, f1], axis=1), seed=8)
    assert acc.shape == (2, 2)
    assert acc[0, 0] >= 0.95 and acc[1, 1] >= 0.95
    assert acc[0, 1] <= 0.65 and acc[1, 0] <= 0.65

    single = partition_accuracy_matrix(lat, layout, f0, seed=8)
    assert single.shape == (2, 1)
    assert single[0, 0] == acc[0, 0]
    with pytest.raises(InvalidArgumentError):
        partition_accuracy_matrix(lat, layout, f0[:-1], seed=8)


def test_probe_input_validation():
    rng = substream(7, "val")
    x = rng.standard_normal((20, 2))
    with pytest.raises(InvalidArgumentError):
        logistic_fit(x, np.zeros(19))
    with pytest.raises(InvalidArgumentError):
        partition_accuracy(x[:1], np.zeros(1), seed=0)
    bad = x.copy()
    bad[0, 0] = np.nan
    with pytest.raises(InvalidArgumentError):
        logistic_fit(bad, np.arange(20) % 2)


# ---------------------------------------------------------------------------
# Kernel ridge probe.
# ---------------------------------------------------------------------------


def test_latent_r2_identity_map_is_perfect():
    rng = substream(8, "r2-id")
    theta = rng.uniform(0.5, 2.0, size=(4000, 2))
    r2 = latent_r2(theta, theta, seed=1)
    assert r2 >= 1.0 - 1e-6


def test_latent_r2_pure_noise_has_no_skill():
    rng = substream(9, "r2-noise")
    z = rng.standard_normal((800, 4))
    y = rng.standard_normal(800)
    assert latent_r2(z, y, seed=2) <= 0.1


def test_latent_r2_recovers_monotone_transform():
    rng = substream(10, "r2-tanh")
    theta = rng.uniform(0.5, 2.0, size=(1000, 2))
    z = np.tanh(theta)
    assert latent_r2(z, theta, seed=3) >= 0.95


def test_latent_r2_invariant_to_invertible_linear_maps():
    rng = substream(11, "r2-lin")
    theta = rng.uniform(0.5, 2.0, size=(1000, 2))
    z = np.tanh(theta @ rng.standard_normal((2, 4)))
    base = latent_r2(z, theta, seed=4)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    mapped = 3.7 * (z @ q) + rng.standard_normal(4)
    assert abs(latent_r2(mapped, theta, seed=4) - base) <= 0.02


def test_latent_r2_constant_target_warns():
    rng = substream(12, "r2-const")
    z = rng.standard_normal((100, 2))
    with pytest.warns(UserWarning):
        assert latent_r2(z, np.ones(100), seed=5) == 0.0


def test_latent_r2_matches_a_general_solve():
    """The Cholesky solve on the in-place kernel agrees with an LU solve on
    a kernel built out of place."""
    rng = substream(16, "r2-solve")
    z = rng.standard_normal((300, 3))
    y = np.tanh(z[:, :2]) + 0.1 * rng.standard_normal((300, 2))
    perm = substream(7, "probe-split").permutation(300)
    tr, te = perm[60:], perm[:60]
    mean, std = z[tr].mean(axis=0), z[tr].std(axis=0)
    ztr, zte = (z[tr] - mean) / std, (z[te] - mean) / std
    d_tr = np.sum((ztr[:, None, :] - ztr[None, :, :]) ** 2, axis=2)
    d_te = np.sum((zte[:, None, :] - ztr[None, :, :]) ** 2, axis=2)
    bandwidth = 2.0 * np.median(d_tr)
    kernel = np.exp(-d_tr / bandwidth) + 1e-3 * np.eye(240)
    alpha = np.linalg.solve(kernel, y[tr] - y[tr].mean(axis=0))
    pred = np.exp(-d_te / bandwidth) @ alpha + y[tr].mean(axis=0)
    resid = np.sum((y[te] - pred) ** 2, axis=0)
    total = np.sum((y[te] - y[te].mean(axis=0)) ** 2, axis=0)
    want = np.mean(1.0 - resid / total)
    assert abs(latent_r2(z, y, seed=7) - want) <= 1e-10


@pytest.mark.parametrize("ridge", [0.0, -1.0, np.nan, np.inf])
def test_latent_r2_refuses_a_ridge_that_is_not_finite_and_positive(ridge):
    z = substream(13, "r2-val").standard_normal((50, 2))
    with pytest.raises(InvalidArgumentError, match="ridge"):
        latent_r2(z, z[:, 0], seed=0, ridge=ridge)


@pytest.mark.parametrize("l2", [0.0, -1.0, np.nan])
def test_logistic_fit_refuses_an_l2_that_is_not_finite_and_positive(l2):
    x, y = _blobs(substream(1, "blobs"), [(-3.0, 0.0), (3.0, 0.0)], 20)
    with pytest.raises(InvalidArgumentError, match="l2"):
        logistic_fit(x, y, l2=l2)


@pytest.mark.parametrize("train_fraction", [1.0, 1.5, 0.0, np.nan])
def test_latent_r2_refuses_a_train_fraction_outside_the_unit_interval(train_fraction):
    z = substream(13, "r2-val").standard_normal((50, 2))
    with pytest.raises(InvalidArgumentError, match="train_fraction"):
        latent_r2(z, z[:, 0], seed=0, train_fraction=train_fraction)


@pytest.mark.parametrize("test_fraction", [0.0, 1.0, -0.2])
def test_partition_accuracy_refuses_a_test_fraction_outside_the_unit_interval(test_fraction):
    x, y = _blobs(substream(1, "blobs"), [(-3.0, 0.0), (3.0, 0.0)], 20)
    with pytest.raises(InvalidArgumentError, match="test_fraction"):
        partition_accuracy(x, y, seed=0, test_fraction=test_fraction)


def test_latent_r2_validation():
    rng = substream(13, "r2-val")
    z = rng.standard_normal((50, 2))
    with pytest.raises(InvalidArgumentError):
        latent_r2(z, np.zeros(49), seed=0)


# ---------------------------------------------------------------------------
# AIPW.
# ---------------------------------------------------------------------------


def test_randomized_benchmark_recovers_true_effect():
    ds = synthetic_causal_dataset(4000, 21, "randomized")
    res = aipw_ate(ds.covariates, ds.treatment, ds.outcome)
    assert abs(res.ate_hat - ds.true_ate) <= 0.1
    assert 0.0 < res.se_hat < 0.1
    assert res.n == 4000
    assert res.warnings == ()


def test_confounded_benchmark_needs_the_correction():
    ds = synthetic_causal_dataset(6000, 22, "confounded")
    naive = ds.outcome[ds.treatment == 1].mean() - ds.outcome[ds.treatment == 0].mean()
    assert abs(naive - ds.true_ate) > 0.25  # the raw contrast is visibly off
    res = aipw_ate(ds.covariates, ds.treatment, ds.outcome)
    assert abs(res.ate_hat - ds.true_ate) <= 0.1


def test_double_robustness_with_one_broken_nuisance():
    ds = synthetic_causal_dataset(6000, 23, "confounded")
    n = ds.covariates.shape[0]
    # Broken propensity (pretends the study was randomized), good outcomes.
    res_p = aipw_ate(
        ds.covariates, ds.treatment, ds.outcome, propensities=np.full(n, 0.5)
    )
    assert abs(res_p.ate_hat - ds.true_ate) <= 0.15
    # Broken outcome models (all-zero predictions), good propensity.
    res_o = aipw_ate(
        ds.covariates, ds.treatment, ds.outcome, outcome_means=(np.zeros(n), np.zeros(n))
    )
    assert abs(res_o.ate_hat - ds.true_ate) <= 0.15


def test_weak_overlap_triggers_positivity_warning():
    rng = substream(14, "overlap")
    n = 2000
    x = rng.standard_normal((n, 2))
    logits = 6.0 * x[:, 0]  # extreme propensities on both sides
    p = 1.0 / (1.0 + np.exp(-logits))
    t = (rng.uniform(size=n) < p).astype(int)
    y = x[:, 0] + 2.0 * t + rng.standard_normal(n)
    with pytest.warns(UserWarning, match="clipped"):
        res = aipw_ate(x, t, y)
    assert len(res.warnings) == 1
    assert "clipped" in res.warnings[0]


def test_aipw_validation():
    rng = substream(15, "aipw-val")
    x = rng.standard_normal((30, 2))
    y = rng.standard_normal(30)
    with pytest.raises(InvalidArgumentError):
        aipw_ate(x, np.full(30, 2), y)
    with pytest.raises(DegenerateLabelsError):
        aipw_ate(x, np.zeros(30, dtype=int), y)
    with pytest.raises(InvalidArgumentError):
        aipw_ate(x, np.arange(30) % 2, y[:-1])
    with pytest.raises(InvalidArgumentError):
        aipw_ate(x, np.arange(30) % 2, y, propensities=np.full(29, 0.5))


@pytest.mark.parametrize("clip", [(0.6, 0.4), (0.0, 1.0), (0.0, 0.5), (0.5, 1.0), (0.3, 0.3)])
def test_aipw_refuses_a_clip_outside_0_lo_hi_1(clip):
    ds = synthetic_causal_dataset(200, 24, "randomized")
    with pytest.raises(InvalidArgumentError, match="clip"):
        aipw_ate(ds.covariates, ds.treatment, ds.outcome, clip=clip)


# ---------------------------------------------------------------------------
# Effect drift.
# ---------------------------------------------------------------------------


def test_ate_trend_change_ratios():
    got = ate_trend([2.0, 2.2, 1.8])
    np.testing.assert_allclose(got, [0.0, 0.1, -0.1], atol=1e-12)
    # AteResult entries are unwrapped transparently.
    wrapped = [AteResult(v, 0.01, 100) for v in (2.0, 2.2, 1.8)]
    np.testing.assert_allclose(ate_trend(wrapped), got, atol=0)


def test_ate_trend_validation():
    with pytest.raises(InvalidArgumentError):
        ate_trend([2.0])
    with pytest.raises(InvalidArgumentError):
        ate_trend([1e-13, 1.0])


def _pav_oracle(seq):
    """Quadratic-time isotonic regression by explicit block search."""
    seq = list(map(float, seq))
    blocks = [[v] for v in seq]
    merged = True
    while merged:
        merged = False
        for i in range(len(blocks) - 1):
            a = sum(blocks[i]) / len(blocks[i])
            b = sum(blocks[i + 1]) / len(blocks[i + 1])
            if a > b + 1e-15:
                blocks[i] = blocks[i] + blocks[i + 1]
                del blocks[i + 1]
                merged = True
                break
    out = []
    for blk in blocks:
        out.extend([sum(blk) / len(blk)] * len(blk))
    return np.array(out)


def test_isotonic_trend_matches_pav_oracle():
    rng = substream(16, "pav")
    values = 2.0 + np.cumsum(0.05 + 0.1 * rng.standard_normal(15))
    ratios = ate_trend(values)
    smooth = ate_trend(values, isotonic=True)
    np.testing.assert_allclose(smooth, _pav_oracle(ratios), atol=1e-12)
    assert np.all(np.diff(smooth) >= -1e-12)  # increasing drift stays increasing
    # A decreasing series is projected to a non-increasing one.
    dec = ate_trend(values[::-1].copy(), isotonic=True)
    assert np.all(np.diff(dec) <= 1e-12)


def test_isotonic_projection_preserves_monotone_input():
    ratios = ate_trend([1.0, 1.1, 1.25, 1.4])
    np.testing.assert_allclose(ate_trend([1.0, 1.1, 1.25, 1.4], isotonic=True), ratios, atol=0)


# ---------------------------------------------------------------------------
# Synthetic benchmark plumbing.
# ---------------------------------------------------------------------------


def test_synthetic_dataset_determinism_and_fields():
    a = synthetic_causal_dataset(500, 3, "randomized")
    b = synthetic_causal_dataset(500, 3, "randomized")
    np.testing.assert_array_equal(a.covariates, b.covariates)
    np.testing.assert_array_equal(a.treatment, b.treatment)
    np.testing.assert_array_equal(a.outcome, b.outcome)
    assert a.true_ate == 2.0
    assert synthetic_causal_dataset(500, 3, "confounded").true_ate == 1.5
    # Roughly balanced arms under randomization.
    assert 0.4 <= a.treatment.mean() <= 0.6
    with pytest.raises(InvalidArgumentError):
        synthetic_causal_dataset(500, 0, "observational")
    with pytest.raises(InvalidArgumentError):
        synthetic_causal_dataset(5, 0)
