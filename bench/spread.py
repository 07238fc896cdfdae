"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/spread.py --seeds 1-10                    # all workloads
    python3 bench/spread.py --workload large-n-spectrum --seeds 1-5
    python3 bench/spread.py --seeds 1-3 --trace 1           # per-layer figures

Run from the root of a source tree.  Runs last BENCHMARK.json's
``run_seconds``.  Each run's JSON result and header are appended to
``bench/out/spread-<tag>.jsonl``; the summary gives, per workload and
metric, the median, the quartiles (``statistics.quantiles(n=4)``), the
interquartile range as a share of the median, and that share against the
metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(workload, seed, trace):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=False)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return {"workload": workload, "seed": seed, "trace": trace, "rc": proc.returncode,
            "wall_s": wall, "result": result, "header": lines[:-1]}


def summarise(records):
    bounds = {m["name"]: m.get("bound") for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    by_workload = {}
    for rec in records:
        by_workload.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    for (workload, trace), recs in sorted(by_workload.items()):
        ok = [r["result"] for r in recs if r["result"] is not None]
        shares = sorted({r["failed"] / r["attempted"] for r in ok})
        walls = [r["wall_s"] for r in recs]
        print(f"\n{workload} trace={trace}: {len(ok)}/{len(recs)} runs ok, "
              f"all correct={all(r['correct'] for r in ok)}, failed shares={shares}, "
              f"wall {min(walls):.1f}-{max(walls):.1f} s")
        if len(ok) < 2:
            continue
        print(f"  {'metric':42s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'iqr/med':>8s} {'bound':>6s}")
        for name in ok[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in ok]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            print(f"  {name:42s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bound if bound is not None else '':>6}")


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload")
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tag", default=time.strftime("%Y%m%d-%H%M%S"))
    args = parser.parse_args(argv)

    out = ROOT / "bench" / "out" / f"spread-{args.tag}.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    records = []
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    for workload in workloads:
        for seed in args.seeds:
            rec = run(workload, seed, args.trace)
            records.append(rec)
            with out.open("a", encoding="utf-8") as handle:
                handle.write(json.dumps(rec) + "\n")
            print(f"{workload} seed {seed}: rc={rec['rc']} wall={rec['wall_s']:.1f}s",
                  file=sys.stderr)
    summarise(records)
    print(f"\nraw results: {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
