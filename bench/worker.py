"""One workload process: imports, warm-up, then timed rounds of CLI calls.

Started by ``run.py`` with the BLAS thread count already fixed in its
environment.  Prints one JSON object on its last line of standard output.
With ``--setup-only`` it stops after the warm-up.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402,F401  (loads its OpenBLAS before blas_threads)
from teardrop import cli  # noqa: E402

import calibrate  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Stop starting rounds after this much wall time, whatever --seconds says,
# so a run that checks slowly still ends well inside its time limit.
WALL_LIMIT_S = 120.0


def blas_threads():
    """Thread count of every OpenBLAS loaded in this process."""
    import ctypes

    found = {}
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = fn()
                break
    return found


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": blas_threads(),
        "src_lines": src_lines,
    }


def run_operation(op):
    """Run an operation's CLI calls; returns (seconds, failed)."""
    start = time.perf_counter()
    failed = False
    for argv in op.calls:
        if cli.main(argv) != 0:
            failed = True
            break
    return time.perf_counter() - start, failed


def typical_rate(times, strata):
    """Operations per second of a typical round: the operations in a round
    over the sum of each stratum's median time.  The median passes over
    the rounds that a slow spell of the machine hits."""
    by_stratum = {}
    for j, seconds in zip(strata, times):
        if j is not None:
            by_stratum.setdefault(j, []).append(seconds)
    return len(by_stratum) / sum(statistics.median(t) for t in by_stratum.values())


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.out)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    correct = True
    errors = []

    def check(op):
        nonlocal correct
        try:
            op.check()
        except (reference.CheckError, OSError, ValueError) as exc:
            correct = False
            errors.append(f"{op.label} N={op.n}: {exc}")

    seen = set()  # argv already run: quantize memoises, so none may repeat

    def first_time(op):
        key = tuple(map(tuple, op.calls))
        if key in seen:
            raise SystemExit(f"repeated operation {op.calls}")
        seen.add(key)
        return op

    for op in map(first_time, workload.warmup()):
        _, failed = run_operation(op)
        if failed:
            raise SystemExit(f"warm-up operation {op.calls} failed")
        check(op)
    setup_done = time.perf_counter()
    # the machine's speed just after set-up, to put setup_s on the scale
    setup_slowness = statistics.median(calibrate.slowness() for _ in range(3))
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done, "setup_slowness": setup_slowness,
                          "correct": correct, "errors": errors}))
        return 0
    if tracer is not None:
        tracer.reset()
    clock = calibrate.Clock()

    wall_times, strata = [], []
    attempted, failed_ops, rounds = 0, 0, 0
    check_s = 0.0
    while sum(wall_times) < args.seconds and time.perf_counter() - setup_done < WALL_LIMIT_S:
        for j, op in enumerate(map(first_time, workload.round(rounds))):
            wall, failed = run_operation(op)
            clock.tick()
            attempted += 1
            wall_times.append(wall)
            strata.append(None if failed else j)
            if failed:
                failed_ops += 1
                continue
            start = time.perf_counter()
            check(op)
            check_s += time.perf_counter() - start
        rounds += 1

    timed = sum(wall_times)
    op_times = clock.scaled(wall_times)  # the calibrated scale, calibrate.py
    result = {
        "setup_done": setup_done,
        "correct": correct,
        "errors": errors[:5],
        "attempted": attempted,
        "failed": failed_ops,
        "rounds": rounds,
        "timed_s": timed,
        "check_s": check_s,
        "ops_per_s": typical_rate(op_times, strata),
        "op_p50_s": statistics.median(op_times),
        "wall_ops_per_s": typical_rate(wall_times, strata),
        "wall_op_p50_s": statistics.median(wall_times),
        "setup_slowness": setup_slowness,
        "slowness": statistics.median(clock.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    }
    if tracer is not None:
        result["per_layer"] = tracing.per_layer(tracer, attempted)
        result["layer_shares"] = tracing.layer_shares(tracer, timed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
