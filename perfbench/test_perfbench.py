#!/usr/bin/env python3
"""Self-test of the soNUMA benchmark (stdlib only).

Runs every workload at its tiny size in both modes and checks that the
command exits 0, that its last line is valid result JSON, that every
metric BENCHMARK.json names is present with its unit, and that the
human-readable block prints all eight end-to-end metrics.

    python3 perfbench/test_perfbench.py
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


def bench(workload, trace):
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=600, check=False)
    return p.returncode, p.stdout.splitlines()


class BenchmarkSelfTest(unittest.TestCase):
    def check_result(self, lines, wanted):
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual([m["name"] for m in SPEC["end_to_end"]],
                         list(run.GATED))

    def test_untraced_prints_every_end_to_end_metric(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                code, lines = bench(workload, 0)
                self.assertEqual(code, 0, "\n".join(lines))
                self.check_result(lines, SPEC["end_to_end"])
                names = {ln.split()[0] for ln in lines if ln.strip()}
                printed = {"setup_s", "run_s", "peak_rss_mb", "sim_mops",
                           "sim_lat_p50_ns", "sim_lat_p99_ns",
                           "op_fail_ratio"}
                if workload == "remote_read_2n":
                    printed.add("sim_read64_ns")
                self.assertLessEqual(printed, names)

    def test_traced_prints_every_per_layer_metric(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                code, lines = bench(workload, 1)
                self.assertEqual(code, 0, "\n".join(lines))
                self.check_result(lines, SPEC["per_layer"])
                self.assertTrue(any(ln.startswith("trace.run_overhead")
                                    for ln in lines))


if __name__ == "__main__":
    unittest.main()
