"""Repeat the benchmark over seeds and summarize each metric's spread.

    python3 perfbench/collect.py --runs 10 [--workloads a,b] [--first-seed 1] [--trace 0]

Runs ``run.py`` once per (workload, seed), one process at a time, with the
``run_seconds`` of BENCHMARK.json, appends every result line to
``perfbench/out/collect-<time>.jsonl`` and prints, per workload and metric,
the median, the quartiles of ``statistics.quantiles(values, n=4)`` and the
quartile distance as a share of the median, next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    log = os.path.join(HERE, "out", time.strftime("collect-%Y%m%d-%H%M%S.jsonl"))
    print(f"results -> {log}")
    for workload in args.workloads.split(","):
        values, shares = {}, []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            t0 = time.perf_counter()
            proc = subprocess.run(
                bench["command"] + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(bench["run_seconds"]),
                                    "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(log, "a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, "wall_s": wall,
                                     "trace": args.trace, "stderr": proc.stderr[-2000:],
                                     **result}) + "\n")
            shares.append(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"  {workload} seed {seed}: {wall:.1f} s wall, correct {result['correct']}, "
                  f"{result['attempted']} attempted, {result['failed']} failed", flush=True)
        print(f"{workload}: failed share {sorted(set(shares))}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:32s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:7.4f}  bound {bounds.get(name)}", flush=True)


if __name__ == "__main__":
    main()
