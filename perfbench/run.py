#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root):

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --calibrate

The first call builds the C++ program (perfbench/CMakeLists.txt) into
.bench_build/perfbench. The program reports raw per-unit host times with
the frozen reference kernel's rate measured beside each unit; this
script scales every host-time metric to the reference speed recorded in
perfbench/reference.json, checks the simulated outcomes, and prints
diagnostics followed by the result object as the last stdout line.

--calibrate re-records the reference kernel's rate, the machine
fingerprint and the pinned outcomes of the default seed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
REFERENCE = BENCH_DIR / "reference.json"
PAPER_QUALITY_LOSS_PCT = 2.1


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build():
    """Configure (once) and build the program; return its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("perfbench: no src/CMakeLists.txt under %s; run "
                         "from the repository root" % ROOT)
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs], check=True,
                   stdout=sys.stderr)
    return out / "perfbench"


def run_binary(binary, workload, seed, seconds, trace):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", str(build_dir().parent / "traces")]
    proc = subprocess.run(cmd, check=True, stdout=subprocess.PIPE,
                          text=True, timeout=170)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_json(path):
    with open(path) as f:
        return json.load(f)


def normalized(units, ref_rate):
    """Per-unit setup seconds and node-ticks/s at the reference speed.

    A time scales by measured/recorded kernel rate, a rate by its
    inverse: on a host running 10% slow both come out unchanged.
    """
    setup = [s * rate / ref_rate for s, _, _, rate in units]
    tps = [t / run * ref_rate / rate for _, run, t, rate in units]
    return setup, tps


def end_to_end(data, ref_rate):
    setup, tps = normalized(data["units"], ref_rate)
    # Each unit's setup is already the median of its repeats. Setup
    # time sits at a few discrete levels that depend on where the heap
    # places the new objects, and a unit keeps one level; a median over
    # units jumps between levels from run to run, the mean moves with
    # their mix.
    values = {"setup_s": statistics.mean(setup),
              "node_ticks_per_s": statistics.median(tps),
              "peak_rss_mb": data["peak_rss_mb"]}
    values.update(data["outcome"])
    return values


def per_layer(data, ref_rate):
    values = dict(data["layers"])
    units = data["units"]
    _, tps = normalized(units, ref_rate)
    _, traced_tps = normalized(data["traced_units"], ref_rate)
    values["host.ref_rate"] = statistics.median(u[3] for u in units)
    values["host.raw_node_ticks_per_s"] = statistics.median(
        t / run for _, run, t, _ in units)
    values["host.raw_setup_s"] = statistics.mean(u[0] for u in units)
    values["obs.overhead_pct"] = 100.0 * (
        statistics.median(tps) / statistics.median(traced_tps) - 1.0)
    return values


def check_pins(reference, data):
    """Compare the outcomes with the pinned ones; None if none apply."""
    pins = reference.get("pins", {}).get(data["workload"])
    if pins is None or data["seed"] != reference.get("default_seed"):
        return None
    got = dict(data["outcome"], digest=data["outcome_digest"])
    bad = [m for m in pins if got[m] != pins[m]]
    for m in bad:
        log("perfbench: %s = %r, pinned %r" % (m, got[m], pins[m]))
    return not bad


def report(bench, reference, data, trace):
    ref = reference["reference_kernel"]
    fp = data["fingerprint"]
    same_machine = fp == ref["fingerprint"]
    print("fingerprint: " + json.dumps(fp, sort_keys=True))
    if not same_machine:
        print("WARNING: fingerprint differs from the one the reference "
              "rate was recorded on (%s); host-time metrics compare "
              "across machines" % json.dumps(ref["fingerprint"],
                                             sort_keys=True))
    print("quality_loss_pct %.4f beside the paper's %.1f%% (the model "
          "is otherwise unvalidated)" % (data["outcome"]["quality_loss_pct"],
                                         PAPER_QUALITY_LOSS_PCT))
    for err in data["errors"]:
        print("error: " + err)

    attempted, failed = data["attempted"], data["failed"]
    pinned = check_pins(reference, data)
    if pinned is not None:
        attempted += 1
        failed += 0 if pinned else 1

    rate = ref["rate"]
    values = per_layer(data, rate) if trace else end_to_end(data, rate)
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            raise SystemExit("perfbench: metric %s missing" % m["name"])
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def calibrate(binary, bench, seconds):
    """Record the kernel rate, fingerprint and default-seed pins."""
    reference = load_json(REFERENCE) if REFERENCE.is_file() else {}
    seed = reference.get("default_seed", 1)
    rates, pins, fingerprint = [], {}, None
    for w in bench["workloads"]:
        data = run_binary(binary, w["name"], seed, seconds, 0)
        rates += [u[3] for u in data["units"]]
        pins[w["name"]] = dict(data["outcome"],
                               digest=data["outcome_digest"])
        fingerprint = data["fingerprint"]
        log("calibrate: %s done" % w["name"])
    reference.update({
        "default_seed": seed,
        "reference_kernel": {"rate": statistics.median(rates),
                             "fingerprint": fingerprint},
        "pins": pins,
    })
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, indent=2, sort_keys=True)
        f.write("\n")
    log("wrote %s" % REFERENCE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--calibrate", action="store_true")
    args = ap.parse_args()

    bench = load_json(ROOT / "BENCHMARK.json")
    binary = build()
    if args.calibrate:
        calibrate(binary, bench, args.seconds)
        return
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        raise SystemExit("perfbench: --workload must be one of %s" % names)
    data = run_binary(binary, args.workload, args.seed, args.seconds,
                      args.trace)
    report(bench, load_json(REFERENCE), data, args.trace)


if __name__ == "__main__":
    main()
