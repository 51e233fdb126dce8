#!/usr/bin/env python3
"""The benchmark's own tests: every workload at a tiny size.

Run from the root of the repository:

    python3 perfbench/test_perfbench.py

They check that each run prints every metric named in BENCHMARK.json
with its unit, that the output checks pass on the current code, and that
a deliberately perturbed jobs=2 aggregate trips the output check.
"""

import json
import os
import subprocess
import sys
import unittest

with open("BENCHMARK.json") as f:
    SPEC = json.load(f)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "0.2", "--trace", str(trace), "--size", "tiny",
           *extra]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return p.returncode, result, p.stdout + p.stderr


class Workloads(unittest.TestCase):
    def assert_metrics(self, result, spec):
        want = {m["name"]: m["unit"] for m in spec}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, v in result["metrics"].items():
            self.assertIsInstance(v["value"], (int, float), name)

    def test_every_metric_with_its_unit(self):
        for w in SPEC["workloads"]:
            for trace, spec in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=w["name"], trace=trace):
                    code, result, out = run(w["name"], trace)
                    self.assertEqual(code, 0, out[-3000:])
                    self.assertTrue(result["correct"], out[-3000:])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assert_metrics(result, spec)

    def test_perturbed_aggregate_trips_the_check(self):
        for name in ("failstop-fullscan", "fleet-incremental"):
            with self.subTest(workload=name):
                code, result, out = run(name, 0, "--perturb")
                self.assertNotEqual(code, 0, out[-3000:])
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertIn("CHECK FAILED", out)

    def test_unknown_workload_fails(self):
        code, result, _ = run("no-such-workload", 0)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
