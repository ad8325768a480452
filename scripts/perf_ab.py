#!/usr/bin/env python3
"""A/B two revisions on perfbench: alternating pairs, medians, verdicts.

Usage (from the repository root):

    python3 scripts/perf_ab.py BASE CHANGE [--workloads a,b]
        [--pairs N] [--seconds S] [--first-seed K] [--trace 0|1]
        [--out-dir DIR]

BASE and CHANGE are git revisions, or WORKTREE for the files of this
checkout as they are now (tracked and untracked, minus ignored ones).
Each side is unpacked into its own tree under DIR (default
build/perf_ab) and runs its own perfbench/run.py there, so each side
builds and measures its own sources. Pair i runs every workload once
per side with seed K + i, the side that goes first alternating from
pair to pair, and `--trace` as given (0: end-to-end metrics, 1:
per-layer metrics).

Per workload and metric it prints the medians of both sides, the
interquartile ranges (IQR) of both, the pairs the change wins and a
verdict. A metric is "better" or "worse" only if the change wins (or
loses) at least 90% of the pairs, there are at least 10 pairs, and the
medians differ by more than the parent's IQR; otherwise it is "flat".
An A/A run (the same revision twice) should call every metric flat.

Every run must read `correct: true` and `failed: 0`, and with
--trace 0 both sides of a pair must report the same simulated
outcomes (every end-to-end metric but node_ticks_per_s, setup_s and
peak_rss_mb). Exit status is 1 if any of that fails. The raw values of
every run go to DIR/last_run.json.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
HOST_METRICS = {"node_ticks_per_s", "setup_s", "peak_rss_mb"}
MIN_PAIRS = 10
WIN_SHARE = 0.9


def git(*args, **kw):
    return subprocess.run(["git", "-C", str(ROOT)] + list(args),
                          check=True, stdout=subprocess.PIPE, **kw).stdout


def unpack(rev, out_dir):
    """Write the sources of `rev` into a tree under out_dir; its path."""
    if rev == "WORKTREE":
        tree = out_dir / "worktree"
        names = git("ls-files", "-z", "--cached", "--others",
                    "--exclude-standard").split(b"\0")
        files = {n.decode() for n in names if (ROOT / n.decode()).is_file()}
        if tree.is_dir():
            # Drop what an earlier copy left and the checkout no longer
            # has; the build directory stays, to build incrementally.
            for old in tree.rglob("*"):
                rel = old.relative_to(tree).as_posix()
                if (old.is_file() and rel not in files and
                        not rel.startswith(".bench_build/")):
                    old.unlink()
        for name in files:
            dst = tree / name
            dst.parent.mkdir(parents=True, exist_ok=True)
            # copy2 keeps the source's mtime, so an unchanged file does
            # not make the next build recompile it.
            shutil.copy2(ROOT / name, dst)
        return tree
    sha = git("rev-parse", "--verify", rev + "^{commit}",
              text=True).strip()
    tree = out_dir / sha[:12]
    if not (tree / "perfbench" / "run.py").is_file():
        tree.mkdir(parents=True, exist_ok=True)
        archive = git("archive", sha)
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive,
                       check=True)
    return tree


def run(tree, workload, seed, seconds, trace):
    """One perfbench run in `tree`; returns its result object."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace)]
    out = subprocess.run(cmd, cwd=tree, check=True,
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def spread(values):
    """Interquartile range (infinite below two values)."""
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def compare(spec, base, change):
    """Medians, parent IQR, change wins and verdict of one metric."""
    higher = spec["better"] == "higher"
    wins = sum((c > b) if higher else (c < b)
               for b, c in zip(base, change))
    losses = sum((c < b) if higher else (c > b)
                 for b, c in zip(base, change))
    b_med, c_med = statistics.median(base), statistics.median(change)
    iqr, c_iqr = spread(base), spread(change)
    n = len(base)
    resolved = n >= MIN_PAIRS and abs(c_med - b_med) > iqr
    if resolved and wins >= WIN_SHARE * n:
        verdict = "better"
    elif resolved and losses >= WIN_SHARE * n:
        verdict = "worse"
    else:
        verdict = "flat"
    return b_med, c_med, iqr, c_iqr, wins, verdict


def fmt(x):
    if x == 0 or x == float("inf"):
        return str(x)
    return "%.4g" % x


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--workloads", help="comma-separated (default: all)")
    ap.add_argument("--pairs", type=int, default=MIN_PAIRS)
    ap.add_argument("--seconds", type=float, default=None,
                    help="per run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--first-seed", type=int, default=1001)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out-dir", default="build/perf_ab")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        wanted = args.workloads.split(",")
        unknown = [w for w in wanted if w not in workloads]
        if unknown:
            raise SystemExit("perf_ab: unknown workloads %s" % unknown)
        workloads = wanted
    seconds = args.seconds or bench["run_seconds"]
    specs = bench["per_layer" if args.trace else "end_to_end"]
    out_dir = (ROOT / args.out_dir).resolve()
    out_dir.mkdir(parents=True, exist_ok=True)

    trees = {"base": unpack(args.base, out_dir),
             "change": unpack(args.change, out_dir)}
    for side, tree in trees.items():
        # The first run.py call builds the side's program; a short run
        # keeps the build out of the measured pairs.
        print("perf_ab: building %s in %s" % (side, tree), flush=True)
        run(tree, workloads[0], args.first_seed, 0.5, args.trace)

    values = {w: {"base": [], "change": []} for w in workloads}
    problems = []
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
        for w in workloads:
            pair = {}
            for side in order:
                res = run(trees[side], w, seed, seconds, args.trace)
                if not res["correct"] or res["failed"]:
                    problems.append("%s %s seed %d: correct=%s failed=%s"
                                    % (side, w, seed, res["correct"],
                                       res["failed"]))
                pair[side] = {k: v["value"]
                              for k, v in res["metrics"].items()}
                values[w][side].append(pair[side])
            if not args.trace:
                for m in pair["base"]:
                    if (m not in HOST_METRICS and
                            pair["base"][m] != pair["change"][m]):
                        problems.append(
                            "%s seed %d: %s %r (base) vs %r (change)"
                            % (w, seed, m, pair["base"][m],
                               pair["change"][m]))
        print("perf_ab: pair %d/%d done" % (i + 1, args.pairs),
              flush=True)

    (out_dir / "last_run.json").write_text(json.dumps(
        {"base": args.base, "change": args.change, "seconds": seconds,
         "first_seed": args.first_seed, "trace": args.trace,
         "values": values}, indent=1) + "\n")

    print("\nbase %s, change %s: %d pairs of %g s, seeds %d-%d, "
          "--trace %d" % (args.base, args.change, args.pairs, seconds,
                          args.first_seed,
                          args.first_seed + args.pairs - 1, args.trace))
    for w in workloads:
        print("\n%s\n" % w)
        print("| metric | base | change | change % | base IQR "
              "| change IQR | wins | verdict |")
        print("|---|---|---|---|---|---|---|---|")
        for spec in specs:
            m = spec["name"]
            base = [v[m] for v in values[w]["base"]]
            change = [v[m] for v in values[w]["change"]]
            b_med, c_med, iqr, c_iqr, wins, verdict = compare(
                spec, base, change)
            pct = 100.0 * (c_med / b_med - 1.0) if b_med else 0.0
            print("| %s | %s | %s | %+.1f | %s | %s | %d/%d | %s |"
                  % (m, fmt(b_med), fmt(c_med), pct, fmt(iqr),
                     fmt(c_iqr), wins, len(base), verdict))
    for p in problems:
        print("FAIL: " + p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
