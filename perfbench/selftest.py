#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

They check BENCHMARK.json against the benchmark contract (name
grammar, limits, units and directions), that every workload emits
every metric, that deterministic values repeat exactly at one seed,
and that a different seed changes the generated inputs.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
import run as bench  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
SPEC = json.loads(Path("BENCHMARK.json").read_text())

# Per-layer values that are simulated counts: identical at one seed.
DETERMINISTIC_LAYERS = [
    "colo.ticks", "colo.intervals", "core.decisions", "core.actuations",
    "services.samples_per_tick", "admission.shed_pct",
    "admission.gate_arms", "budget.slice_installs", "cluster.epochs",
    "cluster.migrations", "obs.trace_events",
]


def run_bench(workload, seed, trace, seconds=1):
    """One run.py invocation; returns its result object."""
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], check=True, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


class ContractTest(unittest.TestCase):
    def test_top_level_keys(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end",
                                     "per_layer"})

    def test_limits(self):
        self.assertTrue(1 <= len(SPEC["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(SPEC["per_layer"]) <= 128)
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        self.assertIsInstance(SPEC["run_seconds"], int)
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        self.assertTrue(1 <= len(SPEC["paths"]) <= 16)
        self.assertLessEqual(len(json.dumps(SPEC)), 64 * 1024)

    def test_command_and_paths(self):
        cmd = SPEC["command"]
        self.assertTrue(1 <= len(cmd) <= 32)
        for arg in cmd:
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/") or ".." in arg, arg)
        for p in SPEC["paths"]:
            self.assertRegex(p, PATH)
            self.assertTrue(Path(p).is_dir(), p)

    def test_names_are_unique_and_well_formed(self):
        names = [w["name"] for w in SPEC["workloads"]]
        names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)

    def test_workloads_say_why(self):
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(0 < len(w["why"]) <= 200)
            self.assertNotIn("\n", w["why"])

    def test_metrics_declare_unit_and_direction(self):
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))

    def test_setup_time_is_measured_with_the_largest_bound(self):
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))


class WorkloadTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = bench.build()

    def raw(self, workload, seed):
        return bench.run_binary(self.binary, workload, seed, 0.05, 0)

    def test_every_workload_emits_every_metric(self):
        for w in SPEC["workloads"]:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    res = run_bench(w["name"], 1, trace)
                    self.assertEqual(set(res), {"correct", "attempted",
                                                "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in SPEC[group]}
                    got = {k: v["unit"] for k, v in res["metrics"].items()}
                    self.assertEqual(got, want)

    def test_deterministic_values_repeat_at_one_seed(self):
        a, b = self.raw("dense_node", 7), self.raw("dense_node", 7)
        self.assertEqual(a["outcome"], b["outcome"])
        self.assertEqual(a["outcome_digest"], b["outcome_digest"])
        la = run_bench("cluster_control", 7, 1)["metrics"]
        lb = run_bench("cluster_control", 7, 1)["metrics"]
        for name in DETERMINISTIC_LAYERS:
            self.assertEqual(la[name], lb[name], name)

    def test_a_different_seed_changes_the_inputs(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                a = self.raw(w["name"], 7)
                self.assertEqual(a["inputs_digest"],
                                 self.raw(w["name"], 7)["inputs_digest"])
                self.assertNotEqual(a["inputs_digest"],
                                    self.raw(w["name"], 8)["inputs_digest"])


if __name__ == "__main__":
    unittest.main()
