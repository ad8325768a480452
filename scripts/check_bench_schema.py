#!/usr/bin/env python3
"""Diff a fresh fig_scale JSON against the committed BENCH_scale.json.

Fails (exit 1) on schema drift: top-level keys, the per-config key
set, the config roster/order, or any config field outside the
wall-clock set changing. Those fields (the description, the shape,
the tick count, the cluster rollups steady_p99_us and worst_ratio,
the thread-invariance bit identical_to_serial, and any field added
later) are pure configuration or simulation outputs and must not
move between machines. Wall-clock fields (wall_s, ticks_per_sec,
peak_rss_mb, cpu_s, parallelism and host_starved) are noisy on
shared runners, so they only produce a warning line.

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


def fail(msg):
    print(f"SCHEMA DRIFT: {msg}", file=sys.stderr)
    sys.exit(1)


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
        for field in sorted(set(ref) - WALL_CLOCK_FIELDS):
            if ref[field] != new[field]:
                fail(f"config '{name}' {field} = {new[field]} != "
                     f"committed {ref[field]} (a deterministic field "
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
