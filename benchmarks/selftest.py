"""Self-test of the benchmark's checks, then of its steadiness.

    python3 benchmarks/selftest.py                 # checks, then 2 sets x 3 runs
    python3 benchmarks/selftest.py --steadiness-runs 0   # checks only

First the checks must pass on real outputs and fail on each of a perturbed
theta, a perturbed trajectory and an edited output file.  Then
``steadiness.py`` runs the benchmark in two sets and compares them metric by
metric against the bounds in ``BENCHMARK.json``.  Exits 0 only if all of
this holds.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import csv
import dataclasses
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import numpy as np

from dynident.estimators import benchmark_rmse
from dynident.multiview import load_dataset
from dynident.solver import TimeGrid, integrate_batch
from dynident.systems import get_system, sample_parameters

import checks
import layers
import run
import steadiness
import workloads

RESULTS = []


def expect(name, failures, should_fail):
    ok = bool(failures) == should_fail
    RESULTS.append(ok)
    verdict = "PASS" if ok else "FAIL"
    wanted = "fails" if should_fail else "passes"
    print(f"[selftest] {verdict}: {name} {wanted}" + (f" ({failures[0]})" if failures else ""))


def spec_matches_layers():
    spec = run.load_spec()
    declared = [m["name"] for m in spec["per_layer"]]
    reported = [name for name, *_ in layers.LAYER_METRICS] + ["trace.overhead_s"]
    problems = [] if declared == reported else ["per_layer names differ from layers.py"]
    expect("BENCHMARK.json per_layer list", problems, should_fail=False)


def known_form_checks():
    system = get_system("ode31")
    reports = benchmark_rmse([system.id], 5, "deriv", seed=3)
    expect("draw errors of a real deriv cell",
           ["missed"] if checks.failed_draws(reports[0], workloads.WIDE_TOL) else [], False)

    theta = sample_parameters(system, 1, seed=3)[0].theta
    grid = TimeGrid.uniform(0.0, system.t_max, 100)
    states, _, _, _ = integrate_batch(system, theta[None], system.x0, grid)
    perturbed = theta + 1e-6
    rmse = float(np.linalg.norm(perturbed - theta) / np.sqrt(system.param_dim))
    report = dataclasses.replace(reports[0], n_draws=1, n_failures=0, rmse_mean=rmse, rmse_std=0.0)
    expect("a perturbed theta estimate",
           ["missed"] if checks.failed_draws(report, workloads.WIDE_TOL) else [], True)

    dev = checks.solver_deviation(system, theta[None], system.x0[None], grid, states)
    expect("RK4 states against DOP853", [] if dev <= checks.SOLVER_RTOL else [f"{dev:.2e}"], False)
    states[0, 40, 1] += 1e-4
    dev = checks.solver_deviation(system, theta[None], system.x0[None], grid, states)
    expect("a perturbed RK4 trajectory", [] if dev <= checks.SOLVER_RTOL else [f"{dev:.2e}"], True)


def multiview_checks():
    workdir = HERE / ".work" / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.make("multiview-pipeline")
        wl.setup(5, str(workdir))
        wl.run_round()
        failures, failed, _ = wl.check()
        expect("the multiview-pipeline outputs", failures, False)

        dataset = load_dataset(wl.data)
        system = get_system(dataset.system_id)
        sample = np.array([0, dataset.n_pairs - 1])
        expect("the reloaded dataset", checks.check_dataset(dataset, system, sample)[0], False)
        dataset.thetas[1][0, dataset.shared_param_indices[0]] += 1e-12
        expect("a perturbed shared theta", checks.check_dataset(dataset, system, sample)[0], True)
        dataset = load_dataset(wl.data)
        dataset.thetas[0][7, 2] = system.param_hi[2] * 1.01
        expect("a theta outside the box", checks.check_dataset(dataset, system, sample)[0], True)
        dataset = load_dataset(wl.data)
        dataset.states[0][0, 10, 0] += 1e-4
        expect("a perturbed dataset trajectory",
               checks.check_dataset(dataset, system, sample)[0], True)

        manifest = f"{wl.model}.manifest.json"
        expect("the train-mv manifest", checks.check_manifest(manifest), False)
        with open(wl.model, "r+b") as fh:
            fh.seek(100)
            byte = fh.read(1)
            fh.seek(100)
            fh.write(b"7" if byte != b"7" else b"8")
        expect("an edited model file", checks.check_manifest(manifest), True)

        with open(wl.report, newline="") as fh:
            rows = list(csv.reader(fh))
        for row in rows:
            if row[0] == "accuracy":
                row[3] = "1.5"
                break
        with open(wl.report, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        expect("an edited eval report (manifest)", checks.check_manifest(f"{wl.report}.manifest.json"), True)
        expect("an edited eval report (accuracy)", checks.check_eval_report(wl.report, dataset.n_pairs), True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steadiness-runs", type=int, default=3,
                        help="runs per set and workload; 0 skips the steadiness comparison")
    args = parser.parse_args(argv)

    spec_matches_layers()
    known_form_checks()
    multiview_checks()
    ok = all(RESULTS)
    if args.steadiness_runs:
        ok = steadiness.main(["--runs", str(args.steadiness_runs)]) == 0 and ok
    print(f"[selftest] {'all passed' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
