"""Run the benchmark in two sets and compare them against its own bounds.

    python3 benchmarks/steadiness.py --runs 10

Every workload in ``BENCHMARK.json`` runs ``--runs`` times per set, each run
with a seed of its own: workload i uses seeds 1000 + 20 i onwards, the first
set the lower half of its twenty seeds and the second set the upper half.
For each workload and end-to-end metric the script reports each set's median
and spread (the distance between the first and third quartiles as a share of
the median), and checks that

* each spread stays within the metric's bound, except that of ``setup_s``,
  whose process starts vary more than any measured work; only its median is
  compared,
* the two sets' medians differ by no more than the bound, in either
  direction, and
* the share of failed operations is exactly the same in both sets.

A run that fails or prints no result makes its workload NOT STEADY.
"""

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction

from run import HERE, ROOT, load_spec

FIRST_SEED = 1000
#: Seeds set aside per workload: two sets of at most ten runs.
SEEDS_PER_WORKLOAD = 20


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(spec, workload, seed):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    cmd[0] = sys.executable if cmd[0] in ("python", "python3") else cmd[0]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"seed {seed}: run exited with {proc.returncode}")
    return json.loads(lines[-1])


def summarize(spec, runs):
    """{metric: (median, spread)} plus the failed share of a set of runs."""
    out = {}
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        out[m["name"]] = (statistics.median(values), spread(values))
    failed = Fraction(sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))
    return out, failed


def compare(spec, first, second):
    """Failure messages for two sets of runs of one workload (empty when steady)."""
    (a, failed_a), (b, failed_b) = summarize(spec, first), summarize(spec, second)
    problems = []
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        for label, (med, spr) in (("first", a[name]), ("second", b[name])):
            if name != "setup_s" and spr > bound:
                problems.append(f"{name}: {label} set spread {spr:.3f} exceeds bound {bound}")
        shift = (b[name][0] - a[name][0]) / a[name][0]
        if abs(shift) > bound:
            problems.append(f"{name}: medians differ by {shift:+.3f} (bound {bound})")
    if failed_a != failed_b:
        problems.append(f"failed share differs: {failed_a} vs {failed_b}")
    return problems


def check_workload(spec, name, seed0, runs):
    """Run both sets of one workload, print their figures; return (problems, report)."""
    sets = []
    try:
        for k in range(2):
            seeds = range(seed0 + k * runs, seed0 + (k + 1) * runs)
            sets.append([run_once(spec, name, seed) for seed in seeds])
    except RuntimeError as exc:
        return [str(exc)], sets
    for k, runs_k in enumerate(sets):
        summary, failed = summarize(spec, runs_k)
        for m in spec["end_to_end"]:
            med, spr = summary[m["name"]]
            flag = "" if m["name"] == "setup_s" or spr <= m["bound"] / 3 else "  (over a third of the bound)"
            print(f"{name} set{k + 1} {m['name']}: median {med:.6g} {m['unit']}, "
                  f"spread {spr:.3f} (bound {m['bound']}){flag}", flush=True)
        print(f"{name} set{k + 1} failed share: {failed}", flush=True)
    return compare(spec, *sets), sets


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload, 2 to 10")
    args = parser.parse_args(argv)
    if not 2 <= args.runs <= SEEDS_PER_WORKLOAD // 2:
        parser.error("--runs must be from 2 (to have quartiles) to 10")

    spec = load_spec()
    ok = True
    report = {}
    for i, w in enumerate(spec["workloads"]):
        name = w["name"]
        problems, sets = check_workload(spec, name, FIRST_SEED + SEEDS_PER_WORKLOAD * i, args.runs)
        report[name] = [[r["metrics"] | {"failed": r["failed"], "attempted": r["attempted"]}
                         for r in runs] for runs in sets]
        ok = ok and not problems
        print(f"{name}: {'STEADY' if not problems else 'NOT STEADY'}", flush=True)
        for p in problems:
            print(f"  {p}")
    (HERE / "results").mkdir(exist_ok=True)
    with open(HERE / "results" / "steadiness.json", "w") as fh:
        json.dump(report, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
