"""The benchmark's four workloads.

A workload prepares its inputs from the seed (:meth:`setup`), then runs
rounds: one round is a fixed list of operations, the same in every round of
a run, so the share of failed operations does not depend on how many rounds
fit in the run.  After the timed rounds, :meth:`check` verifies the outputs
against independent computations (see ``checks.py``).

Operations are parameter draws for the known-form workloads and CLI
subcommands for the multiview ones.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from dynident import cli, estimators
from dynident.multiview import build_identifier, load_dataset, load_identifier, multiview_loss
from dynident.solver import TimeGrid, integrate_batch
from dynident.systems import get_system, sample_parameters

import checks

#: The ten tabulated systems of the derivative-matching acceptance bar.
BENCH_ROWS = ("ode2", "ode3", "ode5", "ode6", "ode24", "ode25", "ode27", "ode28", "ode31", "ode50")
#: The six systems whose field is linear in theta.
LINEAR_ROWS = ("ode2", "ode5", "ode6", "ode27", "ode31", "ode63")

#: Noise-free data with exact derivatives makes the truth an exact zero of
#: the deriv and closed objectives (worst error seen: 4e-13) ...
WIDE_TOL = 1e-9
#: ... and of the trajectory objective, which LM reaches to about 1e-13.
TRAJ_TOL = 1e-6

#: Draws whose RK4 states are compared with DOP853, per system and round.
SOLVER_SAMPLE = 2


class KnownForm:
    """``benchmark_rmse`` over fixed (systems, draws, method) cells."""

    def __init__(self, name, cells, tol, grid_points=100):
        self.name = name
        self.cells = cells
        self.tol = tol
        self.grid_points = grid_points
        self.rounds = []

    def setup(self, seed, workdir):
        self.seed = seed

    def run_round(self):
        reports = []
        for systems, n, method in self.cells:
            reports += estimators.benchmark_rmse(
                list(systems), n, method, self.seed, grid_points=self.grid_points
            )
        self.rounds.append(reports)

    def operations(self):
        return sum(len(systems) * n for systems, n, _ in self.cells)

    def check(self):
        """Every round must return the first round's reports; check those."""
        failures = []
        first = self.rounds[0]
        key = [(r.system_id, r.method, r.rmse_mean, r.rmse_std, r.n_failures) for r in first]
        for reports in self.rounds[1:]:
            if [(r.system_id, r.method, r.rmse_mean, r.rmse_std, r.n_failures)
                    for r in reports] != key:
                failures.append("rounds with the same seed returned different reports")
                break
        worst = {}
        for r in first:
            bound = checks.worst_draw_error(r)
            worst[r.method] = max(worst.get(r.method, 0.0), bound)
            if checks.failed_draws(r, self.tol):
                failures.append(
                    f"{r.system_id}/{r.method}: {r.n_failures} failed draws, "
                    f"worst error bound {bound:.2e} (tolerance {self.tol:g})"
                )
        failed = len(self.rounds) * sum(checks.failed_draws(r, self.tol) for r in first)

        solver_dev = 0.0
        for sid in sorted({s for systems, _, _ in self.cells for s in systems}):
            system = get_system(sid)
            n = max(n for systems, n, _ in self.cells if sid in systems)
            draws = sample_parameters(system, n, self.seed)[:SOLVER_SAMPLE]
            thetas = np.stack([d.theta for d in draws])
            x0s = np.tile(system.x0, (len(draws), 1))
            grid = TimeGrid.uniform(0.0, system.t_max, self.grid_points)
            states, _, ok, _ = integrate_batch(system, thetas, x0s, grid)
            if not np.all(ok):
                failures.append(f"{sid}: a sampled draw diverged")
                continue
            dev = checks.solver_deviation(system, thetas, x0s, grid, states)
            if dev > checks.SOLVER_RTOL:
                failures.append(f"{sid}: RK4 states deviate from DOP853 by {dev:.2e}")
            solver_dev = max(solver_dev, dev)
        quality = {f"worst_rmse_{m}": v for m, v in worst.items()}
        quality["solver_rel_dev"] = solver_dev
        return failures, failed, quality


class Multiview:
    """In-process CLI runs: optional ``synth-mv`` and ``eval`` around ``train-mv``."""

    def __init__(self, name, pairs, train_flags, synth_in_round, with_eval, loss_pairs):
        self.name = name
        self.pairs = pairs
        self.train_flags = train_flags
        self.synth_in_round = synth_in_round
        self.with_eval = with_eval
        self.loss_pairs = loss_pairs
        self.stages = []
        self.digests = []

    def setup(self, seed, workdir):
        self.seed = seed
        self.data = os.path.join(workdir, "pairs.jsonl")
        self.model = os.path.join(workdir, "model.json")
        self.report = os.path.join(workdir, "eval.csv")
        s = str(seed)
        self.synth = ["synth-mv", "--system", "ode27", "--shared", "0,1",
                      "--pairs", str(self.pairs), "--seed", s, "--out", self.data]
        self.train = ["train-mv", "--data", self.data, "--out", self.model, "--seed", s,
                      *self.train_flags]
        self.eval = ["eval", "--model", self.model, "--data", self.data,
                     "--report", self.report, "--seed", s]
        self.commands = [self.train]
        if self.synth_in_round:
            self.commands.insert(0, self.synth)
        elif cli.main(self.synth) != 0:
            raise RuntimeError("synth-mv failed during set-up")
        if self.with_eval:
            self.commands.append(self.eval)

    def operations(self):
        return len(self.commands)

    def run_round(self):
        times, codes = {}, {}
        for argv in self.commands:
            tic = time.perf_counter()
            codes[argv[0]] = cli.main(argv)
            times[argv[0]] = time.perf_counter() - tic
        self.stages.append((times, codes))
        self.digests.append(self._manifest_outputs())

    def _manifest_outputs(self):
        outputs = {}
        for path in self._manifests():
            if os.path.exists(path):
                with open(path) as fh:
                    outputs[path] = json.load(fh)["outputs"]
        return outputs

    def _manifests(self):
        paths = [f"{self.data}.manifest.json", f"{self.model}.manifest.json"]
        if self.with_eval:
            paths.append(f"{self.report}.manifest.json")
        return paths

    def check(self):
        """Check the last round's files; earlier rounds must match them byte for byte."""
        bad = {}  # subcommand -> failure messages

        def fail(command, messages):
            if messages:
                bad.setdefault(command, []).extend(messages)

        for _, codes in self.stages:
            for command, code in codes.items():
                if code != 0:
                    fail(command, [f"{command} exited with {code}"])
        owners = dict(zip(self._manifests(), ["synth-mv", "train-mv", "eval"]))
        for path, owner in owners.items():
            fail(owner, checks.check_manifest(path))
        for outputs in self.digests[:-1]:
            if outputs != self.digests[-1]:
                fail("train-mv", ["rounds with the same seed wrote different files"])

        dataset = load_dataset(self.data)
        system = get_system(dataset.system_id)
        sample = np.unique(np.linspace(0, dataset.n_pairs - 1, 4).astype(int))
        dataset_failures, solver_dev = checks.check_dataset(dataset, system, sample)
        fail("synth-mv", dataset_failures)

        model = load_identifier(self.model)
        untrained = build_identifier(dataset, model.config, seed=self.seed)
        subset = np.arange(min(self.loss_pairs, dataset.n_pairs))
        trained_loss = multiview_loss(model, dataset, subset)["total"]
        untrained_loss = multiview_loss(untrained, dataset, subset)["total"]
        if not trained_loss < untrained_loss:
            fail("train-mv", [f"trained loss {trained_loss:.4g} is not below "
                              f"the untrained {untrained_loss:.4g}"])
        quality = {"loss_ratio": trained_loss / untrained_loss}

        if self.with_eval:
            fail("eval", checks.check_eval_report(self.report, dataset.n_pairs))
            report = checks.read_eval_report(self.report)
            quality["r2_shared"] = report[("r2", "block0", "theta_S")]
            quality["r2_private"] = report[("r2", "block1", "theta_S")]
        quality["solver_rel_dev"] = solver_dev

        # A subcommand whose output failed a check fails in every round: the
        # rounds wrote the same bytes.
        failed = sum(
            sum(1 for command, code in codes.items() if code != 0 or command in bad)
            for _, codes in self.stages
        )
        failures = [m for messages in bad.values() for m in messages]
        return failures, failed, quality

    def stage_details(self):
        """Median stage times of the rounds plus the sizes of the files written."""
        details = {}
        for command in self.stages[0][0]:
            details[f"{command}_s"] = float(np.median([t[command] for t, _ in self.stages]))
        epochs = int(self.train_flags[self.train_flags.index("--epochs") + 1])
        details["train_pairs_per_s"] = self.pairs * epochs / details["train-mv_s"]
        details["model_bytes"] = os.path.getsize(self.model)
        if self.synth_in_round:
            details["dataset_bytes"] = os.path.getsize(self.data)
        return details


def make(name):
    if name == "known-form-wide":
        return KnownForm(
            name,
            [(BENCH_ROWS, 200, "deriv"), (LINEAR_ROWS, 200, "closed")],
            WIDE_TOL,
        )
    if name == "known-form-traj":
        return KnownForm(
            name,
            [(("ode3", "ode24", "ode63", "ode56"), 7, "traj")],
            TRAJ_TOL,
            grid_points=20,
        )
    if name == "multiview-pipeline":
        return Multiview(
            name,
            pairs=2000,
            train_flags=["--epochs", "5", "--blocks", "6,2", "--hidden-dim", "128",
                         "--depth", "4", "--n-init", "1", "--reg-align", "30"],
            synth_in_round=True,
            with_eval=True,
            loss_pairs=2000,
        )
    if name == "multiview-field":
        return Multiview(
            name,
            pairs=256,
            train_flags=["--epochs", "2", "--decoder", "field", "--hidden-dim", "64",
                         "--depth", "3", "--blocks", "2,2"],
            synth_in_round=False,
            with_eval=False,
            loss_pairs=64,
        )
    raise KeyError(name)

