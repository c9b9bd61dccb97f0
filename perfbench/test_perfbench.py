#!/usr/bin/env python3
"""Smoke test of the serving benchmark: every workload, both modes, at a tiny
scale (--smoke). Asserts the result line's shape, that every answer check
passed, and that every metric BENCHMARK.json names is printed with its unit.

    python3 perfbench/test_perfbench.py      # from the repository root
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "2", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    return proc, proc.stdout.strip().splitlines()


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace, expected):
        proc, lines = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in expected})
        for m in expected:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(metrics[m["name"]]["value"], (int, float))
        context = json.loads(lines[0])["context"]
        for key in ("num_cpus", "pool_workers", "build_type", "simd_tier",
                    "wal_fs", "fsync_policy", "seed"):
            self.assertIn(key, context)
        self.assertEqual(context["build_type"], "Release")
        return metrics

    def test_workloads(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload, trace=0):
                metrics = self.check(workload, 0, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(metrics[m["name"]]["value"], 0, m["name"])
            with self.subTest(workload=workload, trace=1):
                self.check(workload, 1, SPEC["per_layer"])

    def test_rejects_bad_arguments(self):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "nope",
             "--seed", "1", "--seconds", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
