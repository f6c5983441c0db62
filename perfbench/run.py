"""liegeo benchmark: one workload, one seed, a closed loop of queries.

    python3 perfbench/run.py --workload cheeger-numeric --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; liegeo is imported from ``src/``.  The
queries run one after another in one process for ``--seconds`` of query
time (whole rounds), every answer is then checked against ``oracles``, and
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Throughput and CPU per query
are medians over the run's rounds.  ``--trace 0`` reports the
end-to-end metrics.  ``--trace 1`` wraps the layers (see ``tracing``), runs
a fixed number of rounds so that every count repeats exactly, writes the
spans to ``perfbench/out/`` and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("cheeger-numeric", "rigid-steady", "cli-closed-forms"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="do the set-up and exit; used to time set-up in a fresh process")
    return p.parse_args(argv)


def setup(args, outdir):
    """Everything before the first timed query: imports, bases, warm-up, inputs."""
    import workloads

    workload = workloads.WORKLOADS[args.workload](outdir)
    workload.setup()
    return workload, workload.round_inputs(args.seed, 0)


def setup_seconds(args):
    """Median wall time of SETUP_SAMPLES fresh processes that only set up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(SRC, "liegeo", "__init__.py")):
        print(f"perfbench: no liegeo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    outdir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(outdir, exist_ok=True)
    try:
        return measure(args, outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def measure(args, outdir):
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    workload, inputs = setup(args, outdir)
    if args.setup_only:
        return 0

    # timed phase: whole rounds, input generation between rounds untimed
    results, walls, rounds = [], [], []     # rounds: (queries, wall s, cpu s)
    timed = 0.0
    while (len(rounds) < workload.TRACE_ROUNDS) if tracer else (timed < args.seconds):
        if rounds:
            inputs = workload.round_inputs(args.seed, len(rounds))
        c0, t0 = time.process_time(), time.perf_counter()
        for q in inputs:
            if tracer:
                tracer.query = len(results)
            tq = time.perf_counter()
            try:
                ans, err = workload.run(q), None
            except Exception as exc:  # a raising query is a failed query
                ans, err = None, f"{type(exc).__name__}: {exc}"
            walls.append(time.perf_counter() - tq)
            results.append((q, ans, err))
        rounds.append((len(inputs), time.perf_counter() - t0, time.process_time() - c0))
        timed += rounds[-1][1]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.query = None
        tracer.uninstall()

    # checks, outside the timed phase
    failed, wrong = 0, 0
    for k, (q, ans, err) in enumerate(results):
        problems = [err] if err else workload.check(q, ans)
        if problems:
            failed += 1
            wrong += err is None
            print(f"query {k} ({q.get('kind', q.get('group', q.get('n')))}): "
                  + "; ".join(problems), file=sys.stderr)
    problems = workload.check_reproducible(results)
    if problems:
        wrong += 1
        print("reproducibility: " + "; ".join(problems), file=sys.stderr)

    n = len(results)
    # per-round medians: a burst of host contention spoils one round, not the run
    queries_per_s = statistics.median(k / w for k, w, _ in rounds)
    if tracer:
        path = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json")
        tracer.write(path)
        print(f"spans -> {path}; traced queries_per_s {queries_per_s:.4f}", file=sys.stderr)
        metrics = tracer.metrics(n)
    else:
        metrics = {
            "setup_s": (setup_seconds(args), "s"),
            "queries_per_s": (queries_per_s, "1/s"),
            "query_p50_ms": (1e3 * statistics.median(walls), "ms"),
            "cpu_ms_per_query": (statistics.median(1e3 * c / k for k, _, c in rounds), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
