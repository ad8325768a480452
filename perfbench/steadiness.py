#!/usr/bin/env python3
"""Steadiness report: is the benchmark steady enough for its own bounds?

Runs `perfbench/run.py` ten times per workload, each run with its own
seed (101-110), in two sets over the same build and seeds, each run
for BENCHMARK.json's run_seconds. For each end-to-end metric and
workload it prints every set's median and quartiles and the spread
(Q3 - Q1) / median, as statistics.quantiles(values, n=4) gives them.
It flags:

  SPREAD  a spread above the metric's bound,
  WIDE    a spread above a third of the bound (the margin to aim for),
  DRIFT   the second set's median worse than the first set's by more
          than the bound.

Exit status is 1 if any SPREAD or DRIFT flag was raised.

Usage (from the repository root):

    python3 perfbench/steadiness.py
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RUNS = 10
SETS = 2
FIRST_SEED = 101


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        print("warning: %s seed %d reported failures" % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / abs(med)


def worse(metric, first, later):
    """Relative change of `later` vs `first` in the metric's bad sense."""
    change = (later - first) / abs(first)
    return -change if metric["better"] == "higher" else change


def main():
    bench = json.loads(Path("BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = range(FIRST_SEED, FIRST_SEED + RUNS)

    # values[set][workload][metric] -> list over seeds
    values = []
    for s in range(SETS):
        per_wl = {}
        for w in workloads:
            runs = [run_once(w, seed, bench["run_seconds"])
                    for seed in seeds]
            per_wl[w] = {m: [r[m] for r in runs] for m in runs[0]}
            print("set %d: %s done" % (s + 1, w), flush=True)
        values.append(per_wl)

    bad = False
    print("\n%-16s %-20s %5s %14s %14s %14s %8s %6s  flags" %
          ("workload", "metric", "set", "q1", "median", "q3", "spread",
           "bound"))
    for w in workloads:
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            first_median = None
            for s, per_wl in enumerate(values):
                q1, med, q3, sp = spread(per_wl[w][name])
                flags = []
                if sp > bound:
                    flags.append("SPREAD")
                    bad = True
                elif sp > bound / 3:
                    flags.append("WIDE")
                if first_median is None:
                    first_median = med
                elif worse(m, first_median, med) > bound:
                    flags.append("DRIFT")
                    bad = True
                print("%-16s %-20s %5d %14.6g %14.6g %14.6g %8.4f %6.2f  %s"
                      % (w, name, s + 1, q1, med, q3, sp, bound,
                         " ".join(flags)))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
