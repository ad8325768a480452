#!/usr/bin/env python3
"""Diff a fresh bench JSON against the committed reference.

Works for any bench that writes the shared row shape (perf_tick,
fig_scale). Fails (exit 1) on schema drift: top-level keys, the
per-config key set, the config roster/order, or any deterministic
simulation field changing — for fig_scale that includes the cluster
rollups (steady_p99_us, worst_ratio) and the thread-invariance bit
(identical_to_serial), which are pure simulation outputs and must
not move between machines. Wall-clock fields (wall_s,
ticks_per_sec, peak_rss_mb, and fig_scale's cpu_s, parallelism and
host_starved) are noisy on shared runners, so they only produce a
warning line — the perf trajectory artifact is where timing history
lives.

Also validates metrics exports (perf_tick --metrics-summary writes
metrics.json, a wrapper with one embedded pliant-metrics-v1 export
per config). Each metric carries its own stability class in the
schema: 'deterministic' values must match the committed reference
exactly (hard fail — these are simulation outputs), while 'wall_time'
values (phase timers, pool stats) are machine noise and warn only.

Usage: check_bench_schema.py <committed.json> <fresh.json>
"""

import json
import sys

WALL_CLOCK_FIELDS = {
    "wall_s",
    "ticks_per_sec",
    "peak_rss_mb",
    "cpu_s",
    "parallelism",
    "host_starved",
}
DETERMINISTIC_FIELDS = {
    "ticks",
    "fast_sampling",
    "nodes",
    "tenants",
    "pool_threads",
    "steady_p99_us",
    "worst_ratio",
    "identical_to_serial",
}


# Stability classes whose values are pinned exactly by the schema.
EXACT_STABILITIES = {"deterministic"}


def fail(msg):
    print(f"SCHEMA DRIFT: {msg}", file=sys.stderr)
    sys.exit(1)


def check_metrics_export(cfg_name, ref, new):
    """One embedded pliant-metrics-v1 export: pin by stability class."""
    if ref.get("schema") != new.get("schema"):
        fail(f"config '{cfg_name}' metrics schema "
             f"{new.get('schema')!r} != committed {ref.get('schema')!r}")
    ref_names = [m["name"] for m in ref["metrics"]]
    new_names = [m["name"] for m in new["metrics"]]
    if ref_names != new_names:
        fail(f"config '{cfg_name}' metric roster {new_names} != "
             f"committed {ref_names}")
    for rm, nm in zip(ref["metrics"], new["metrics"]):
        mname = rm["name"]
        for field in ("kind", "stability"):
            if rm.get(field) != nm.get(field):
                fail(f"config '{cfg_name}' metric '{mname}' {field} "
                     f"= {nm.get(field)!r} != committed "
                     f"{rm.get(field)!r}")
        value_fields = sorted(
            (set(rm) | set(nm)) - {"name", "kind", "stability"})
        if rm["stability"] in EXACT_STABILITIES:
            for field in value_fields:
                if rm.get(field) != nm.get(field):
                    fail(f"config '{cfg_name}' metric '{mname}' "
                         f"{field} = {nm.get(field)} != committed "
                         f"{rm.get(field)} (stability "
                         f"'{rm['stability']}' pins this value "
                         f"exactly)")
        else:
            # wall_time: timers and pool stats move with the machine;
            # show the headline ratio, never fail.
            for field in ("mean", "value", "max"):
                r, n = rm.get(field), nm.get(field)
                if isinstance(r, (int, float)) and r and \
                        isinstance(n, (int, float)):
                    ratio = n / r
                    flag = " <-- check locally" \
                        if not 0.5 <= ratio <= 2.0 else ""
                    print(f"warn-only: '{cfg_name}' {mname}.{field} "
                          f"ratio vs committed = {ratio:.2f}{flag}")
                    break


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    with open(sys.argv[1]) as f:
        committed = json.load(f)
    with open(sys.argv[2]) as f:
        fresh = json.load(f)

    if set(committed) != set(fresh):
        fail(f"top-level keys {sorted(fresh)} != "
             f"committed {sorted(committed)}")
    if committed["bench"] != fresh["bench"]:
        fail(f"bench name {fresh['bench']!r} != "
             f"committed {committed['bench']!r}")

    committed_names = [c["name"] for c in committed["configs"]]
    fresh_names = [c["name"] for c in fresh["configs"]]
    if committed_names != fresh_names:
        fail(f"config roster {fresh_names} != "
             f"committed {committed_names}")

    for ref, new in zip(committed["configs"], fresh["configs"]):
        name = ref["name"]
        if set(ref) != set(new):
            fail(f"config '{name}' keys {sorted(new)} != "
                 f"committed {sorted(ref)}")
        if "export" in ref:
            check_metrics_export(name, ref["export"], new["export"])
            continue
        for field in sorted(DETERMINISTIC_FIELDS & set(ref)):
            if ref[field] != new[field]:
                fail(f"config '{name}' {field} = {new[field]} != "
                     f"committed {ref[field]} (simulated output "
                     f"moved — this is a regression, not noise)")
        for field in sorted(WALL_CLOCK_FIELDS & set(ref)):
            if isinstance(ref[field], bool):
                if ref[field] != new[field]:
                    print(f"warn-only: '{name}' {field} = "
                          f"{str(new[field]).lower()} (committed "
                          f"{str(ref[field]).lower()})")
                continue
            if not ref[field]:
                continue
            ratio = new[field] / ref[field]
            flag = " <-- check locally" if not 0.5 <= ratio <= 2.0 \
                else ""
            print(f"warn-only: '{name}' {field} ratio vs committed "
                  f"= {ratio:.2f}{flag}")

    print(f"{committed['bench']} schema matches the committed "
          f"reference.")


if __name__ == "__main__":
    main()
