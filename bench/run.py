"""Benchmark of the teardrop CLI on three seeded workloads.

    python3 bench/run.py --workload semiclassical-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source tree.  Each workload runs in fresh worker
processes (``worker.py``) with one BLAS thread.  With ``--trace 0`` the
benchmark starts the worker SETUPS times: SETUPS - 1 stop after the
warm-up, and the last also runs the timed rounds.  ``setup_s`` is the
median time from spawning a worker to the end of its warm-up.  With
``--trace 1`` a single traced worker gives the per-layer metrics.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOADS = ("semiclassical-sweep", "large-n-spectrum", "many-body-dynamics")
SETUPS = 5
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 150.0


def worker(args, setup_only, timeout):
    """Run one worker; returns (spawn time, its JSON result)."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(ROOT / "bench" / "out" / args.workload)]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=timeout, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    return spawned, json.loads(lines[-1])


def scaled_setup(spawned, res):
    """Spawn-to-warm-up time on the calibrated scale (calibrate.py)."""
    return (res["setup_done"] - spawned) / res["setup_slowness"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "teardrop" / "cli.py").is_file():
        print("error: run from the root of a teardrop source tree "
              "(src/teardrop/cli.py not found)", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    setups, correct = [], True
    try:
        if not args.trace:
            for _ in range(SETUPS - 1):
                spawned, res = worker(args, True, deadline - time.perf_counter())
                setups.append(scaled_setup(spawned, res))
                correct &= res["correct"]
        spawned, res = worker(args, False, deadline - time.perf_counter())
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(scaled_setup(spawned, res))
    correct &= res["correct"]
    for error in res["errors"]:
        print(f"check failed: {error}", file=sys.stderr)

    env = res["environment"]
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print(f"# host nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} blas={env['blas']!r} "
          f"blas_threads={json.dumps(env['blas_threads'])} "
          f"(OPENBLAS_NUM_THREADS={env['blas_threads_env']}) "
          f"src_lines={env['src_lines']}")
    print(f"# run rounds={res['rounds']} ops={res['attempted']} "
          f"timed_s={res['timed_s']:.3f} check_s={res['check_s']:.3f} "
          f"ops_per_s={res['ops_per_s']:.6g} op_p50_s={res['op_p50_s']:.6g} "
          f"setups_s={[round(s, 4) for s in setups]}")
    print(f"# wall (uncalibrated) ops_per_s={res['wall_ops_per_s']:.6g} "
          f"op_p50_s={res['wall_op_p50_s']:.6g} slowness={res['slowness']:.4f}")
    if args.trace:
        shares = " ".join(f"{k}={v:.4f}" for k, v in res["layer_shares"].items())
        print(f"# layer shares of op time: {shares}")
        metrics = res["per_layer"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": res["ops_per_s"], "unit": "1/s"},
            "op_p50_s": {"value": res["op_p50_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": bool(correct), "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
