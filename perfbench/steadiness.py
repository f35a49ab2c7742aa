#!/usr/bin/env python3
"""Steadiness check for the slot-pipeline benchmark.

    python3 perfbench/steadiness.py [--runs 10] [--seed-base 1]
        [--workloads city,fleet,churn] [--seconds S]

Runs the end-to-end mode (--trace 0) of every workload --runs times (10 by
default), each round with a new seed and the workload order reversed on
every other round, so slow drift of the host lands on all workloads alike.
Prints nproc, the load
average at start, and for each metric its median, quartiles, min/max and
the quartile spread as a share of the median, next to the metric's bound
from BENCHMARK.json (spread should stay under a third of it). Bounds are
set from this output.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("steadiness: %s seed %d failed (exit %d)"
                 % (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit("steadiness: %s seed %d reported incorrect output"
                 % (workload, seed))
    return result, elapsed


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    print("nproc=%d loadavg_at_start=%s runs=%d seconds=%d"
          % (os.cpu_count() or 0, " ".join(map(str, os.getloadavg())),
             args.runs, args.seconds))
    samples = {w: {} for w in workloads}
    walls = {w: [] for w in workloads}
    for r in range(args.runs):
        seed = args.seed_base + r
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        for w in order:
            result, elapsed = run_once(w, seed, args.seconds)
            walls[w].append(elapsed)
            for name, m in result["metrics"].items():
                samples[w].setdefault(name, []).append(m["value"])
            print("round %d seed %d %s done in %.1f s" % (r, seed, w, elapsed),
                  flush=True)

    worst = 0.0
    for w in workloads:
        print("\n%s (process wall: median %.1f s, max %.1f s)"
              % (w, statistics.median(walls[w]), max(walls[w])))
        print("  %-32s %12s %12s %12s %12s %12s %8s %6s"
              % ("metric", "median", "q1", "q3", "min", "max", "spread",
                 "bound"))
        for name, values in samples[w].items():
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds[name]
            worst = max(worst, spread / bound)
            flag = "  <-- above bound/3" if spread >= bound / 3 else ""
            print("  %-32s %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f %6s%s"
                  % (name, med, q1, q3, min(values), max(values), spread,
                     bound, flag))
    print("\nworst spread / bound: %.3f" % worst)


if __name__ == "__main__":
    main()
