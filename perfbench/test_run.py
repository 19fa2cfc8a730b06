#!/usr/bin/env python3
"""Self-test of the benchmark harness.

Runs every workload BENCHMARK.json lists at the tiny size, untraced and
traced, and checks that each prints the result line with every metric
BENCHMARK.json names (with its unit) and no failures. Also checks that the
harness refuses to run without the repository sources. Run from the
repository root:

    python3 perfbench/test_run.py
"""

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "perfbench"))
from run import WORKLOADS  # noqa: E402
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


class HarnessSelfTest(unittest.TestCase):
    def check_result(self, workload, trace, expected):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), RESULT_KEYS)
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0, "error_rate must be 0")
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in expected})
        for metric in expected:
            entry = metrics[metric["name"]]
            self.assertEqual(entry["unit"], metric["unit"], metric["name"])
            self.assertTrue(math.isfinite(entry["value"]), metric["name"])
            if trace == 0:
                self.assertGreater(entry["value"], 0, metric["name"])

    def test_workloads_untraced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_result(workload, 0, BENCHMARK["end_to_end"])

    def test_workloads_traced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_result(workload, 1, BENCHMARK["per_layer"])

    def test_benchmark_lists_the_harness_workloads(self):
        self.assertEqual(sorted(w["name"] for w in BENCHMARK["workloads"]),
                         sorted(WORKLOADS))

    def test_refuses_without_sources(self):
        bare = ROOT / ".bench_build" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = run(BENCHMARK["workloads"][0]["name"], 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
