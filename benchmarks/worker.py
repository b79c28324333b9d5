"""Run one workload in this process and print its result as one JSON line.

``run.py`` starts this script; it is not meant to be called by hand.  The
BLAS thread count is pinned before numpy loads, and dynident is imported
from the ``src`` directory of the checkout this file sits in.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _import_package():
    if not (SRC / "dynident" / "__init__.py").is_file():
        sys.exit(f"worker: no dynident source under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import dynident

    if Path(dynident.__file__).resolve().parent != SRC / "dynident":
        sys.exit(f"worker: imported dynident from {dynident.__file__}, not from {SRC}")


def _blas_threads():
    """The thread count OpenBLAS reports, or None when it cannot be asked."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return fn()
    return None


def machine_facts():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": blas_build,
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def timed_rounds(workload, budget):
    """Whole rounds until the next one would end past ``budget`` seconds."""
    walls = []
    start = time.perf_counter()
    while True:
        tic = time.perf_counter()
        workload.run_round()
        walls.append(time.perf_counter() - tic)
        if time.perf_counter() - start + walls[-1] > budget:
            return walls


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-file")
    args = parser.parse_args()

    _import_package()
    import workloads

    workload = workloads.make(args.workload)
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload.setup(args.seed, str(workdir))
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return
        result = {"ready": ready, "machine": machine_facts()}
        if args.trace:
            import layers
            from tracing import Tracer

            # The first half of the run is untraced, the second traced; the
            # difference of their median rounds is the tracing overhead.
            plain = timed_rounds(workload, args.seconds / 2)
            tracer = Tracer(run_id=f"{args.workload}-seed{args.seed}-{os.getpid()}")
            layers.install(tracer)
            try:
                traced = timed_rounds(workload, args.seconds / 2)
            finally:
                tracer.unpatch()
            walls = plain + traced
            metrics = layers.layer_metrics(tracer, len(traced))
            metrics["trace.overhead_s"] = {
                "value": statistics.median(traced) - statistics.median(plain), "unit": "s"}
            if args.trace_file:
                tracer.dump(args.trace_file)
        else:
            walls = timed_rounds(workload, args.seconds)
            wall = statistics.median(walls)
            metrics = {
                "wall_s": {"value": wall, "unit": "s"},
                # Taken before the checks, which load files of their own.
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                / 1024.0, "unit": "MB"},
            }

        failures, failed, quality = workload.check()
        result.update(
            correct=not failures,
            attempted=workload.operations() * len(walls),
            failed=failed,
            metrics=metrics,
            rounds=walls,
            quality=quality,
            failures=failures,
        )
        if hasattr(workload, "stage_details"):
            result["stages"] = workload.stage_details()
        print(json.dumps(result))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
