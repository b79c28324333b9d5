"""Run the dynident benchmark: one workload, or all four in turn.

    python3 benchmarks/run.py --workload known-form-wide --seed 0 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all

Each workload runs in a process of its own (``worker.py``), with the BLAS
thread count pinned to 1 before numpy loads.  Set-up is measured from the
start of that process until its inputs are ready, three times per run (two
processes that only set up, then the measured one), and reported as the
median.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; with ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
The full result, machine facts and quality numbers included, is also
written under ``benchmarks/results/``, and a traced run's spans next to it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RESULTS = HERE / "results"
SETUP_REPEATS = 3
#: A run must end within 180 s; leave room to report.
DEADLINE_S = 170.0


class WorkerError(Exception):
    pass


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _spawn(argv, deadline):
    """Run the worker; return (start time, its JSON result)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *argv],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker timed out: {' '.join(argv)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with {proc.returncode}: {' '.join(argv)}")
    return start, json.loads(lines[-1])


def run_workload(name, seed, seconds, trace, deadline):
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        start, probe = _spawn(args + ["--setup-only"], deadline)
        setups.append(probe["ready"] - start)
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{name}-seed{seed}-trace{trace}"
    extra = ["--trace", str(trace)]
    if trace:
        extra += ["--trace-file", f"{stem}.spans.jsonl"]
    start, result = _spawn(args + extra, deadline)
    setups.append(result["ready"] - start)
    if not trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    result["setup_runs_s"] = setups
    with open(f"{stem}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def _print_result(name, result):
    print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} rounds={len(result['rounds'])}")
    for metric, m in sorted(result["metrics"].items()):
        print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    for key, value in sorted(result.get("stages", {}).items()):
        print(f"  stage {key} = {value:.6g}")
    for key, value in sorted(result["quality"].items()):
        print(f"  quality {key} = {value:.3g}")
    for failure in result["failures"]:
        print(f"  FAILED CHECK: {failure}")


def main(argv=None):
    workloads = tuple(w["name"] for w in load_spec()["workloads"])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=workloads + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = workloads if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
            _print_result(name, results[name])
    except WorkerError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    if len(names) == 1:
        r = results[names[0]]
        summary = {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
