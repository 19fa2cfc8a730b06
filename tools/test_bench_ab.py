#!/usr/bin/env python3
"""Unit test of the A/B comparator on synthetic perfbench result files.

Run from anywhere:

    python3 tools/test_bench_ab.py
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
BENCHMARK = json.loads((TOOLS.parent / "BENCHMARK.json").read_text())
HOST = {"cpu_model": "Test CPU", "nproc": 4, "kernel": "6.0",
        "compiler": "c++ 13", "build_type": "Release"}
PAIRS = 5


def result_file(directory, side, index, trace, scale=None, correct=True,
                failed=0, host=None):
    """Writes one `run.py --out` file: an untraced `--workload all` run or a
    traced `--workload sweep-single` run, each metric value 100 give or take
    a run-dependent 1%, times scale[name] when given."""
    scale = scale or {}
    jitter = 1.0 + 0.01 * ((index % 3) - 1)
    if trace:
        names = [m["name"] for m in BENCHMARK["per_layer"]]
    else:
        names = [f"{w['name']}.{m['name']}" for w in BENCHMARK["workloads"]
                 for m in BENCHMARK["end_to_end"]]
    metrics = {name: {"value": 100.0 * jitter * scale.get(name, 1.0),
                      "unit": "x"} for name in names}
    doc = {"host": {**HOST, **(host or {}), "git_rev": f"{side}-rev"},
           "workload": "sweep-single" if trace else "all", "seed": 1,
           "trace": trace, "seconds": 5,
           "result": {"correct": correct, "attempted": 1000,
                      "failed": failed, "metrics": metrics}}
    path = Path(directory) / f"{side}-{index}-{trace}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def side_files(directory, side, **change):
    """PAIRS untraced and PAIRS traced files of one side. `scale` and `host`
    apply to every file, `correct` and `failed` to the first pair only."""
    paths = []
    for index in range(PAIRS):
        for trace in (0, 1):
            extra = {}
            for key in ("scale", "host"):
                if key in change:
                    extra[key] = change[key]
            if index == 0:
                for key in ("correct", "failed"):
                    if key in change:
                        extra[key] = change[key]
            paths.append(result_file(directory, side, index, trace, **extra))
    return paths


class BenchAbTest(unittest.TestCase):
    def verdict(self, **change):
        with tempfile.TemporaryDirectory() as directory:
            base = side_files(directory, "base")
            head = side_files(directory, "change", **change)
            proc = subprocess.run(
                [sys.executable, str(TOOLS / "bench_ab.py"), "--base", *base,
                 "--change", *head], capture_output=True, text=True)
        return proc.returncode, proc.stdout

    def test_identical_sides_pass(self):
        code, out = self.verdict()
        self.assertEqual(code, 0, out)
        self.assertIn("bench A/B: PASS", out)

    def test_end_to_end_cpu_regression_fails(self):
        code, out = self.verdict(
            scale={"sweep-combinatorial.cpu_us_per_op": 1.3})
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL: sweep-combinatorial.cpu_us_per_op", out)

    def test_incorrect_run_fails(self):
        code, out = self.verdict(correct=False)
        self.assertEqual(code, 1, out)
        self.assertIn("correct = false", out)

    def test_higher_failed_share_fails(self):
        code, out = self.verdict(failed=1)
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL: failed share rose", out)

    def test_guarded_layer_regression_fails(self):
        code, out = self.verdict(scale={"core.select_ns.dfl-sso": 1.6})
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL: core.select_ns.dfl-sso rose", out)

    def test_mismatched_hosts_refused(self):
        code, out = self.verdict(host={"cpu_model": "Other CPU"})
        self.assertEqual(code, 2, out)
        self.assertIn("refused", out)


if __name__ == "__main__":
    unittest.main()
