#!/usr/bin/env python3
"""Self-tests of the benchmark: determinism, seeding, smoke runs, metric names.

    python3 parvabench/test_bench.py

Builds the benchmark like run.py does, then runs every workload in smoke
mode (small folds and horizons, one second of timing).
"""
import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = ["fleet_plan", "scenario_replay", "fleet_replay"]


def smoke(workload, seed, trace=0):
    """Runs one smoke run; returns (exit code, stdout lines, final JSON)."""
    done = subprocess.run([run.BINARY, "--workload", workload, "--seed", str(seed),
                           "--seconds", "1", "--trace", str(trace), "--smoke"],
                          capture_output=True, text=True, timeout=run.RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines, json.loads(lines[-1])


def line_starting(lines, prefix):
    matches = [line for line in lines if line.startswith(prefix)]
    return matches[0] if matches else None


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("benchmark build failed")
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
            cls.spec = json.load(handle)
        cls.runs = {w: smoke(w, 5) for w in WORKLOADS}

    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], WORKLOADS)

    def test_smoke_runs_are_correct(self):
        for workload in WORKLOADS:
            code, lines, result = self.runs[workload]
            self.assertEqual(code, 0, workload)
            self.assertTrue(result["correct"], [l for l in lines if l.startswith("CHECK")])
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(result["failed"], 0, workload)
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})

    def test_untraced_metrics_are_the_end_to_end_metrics(self):
        expected = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        for workload in WORKLOADS:
            metrics = self.runs[workload][2]["metrics"]
            self.assertEqual({k: v["unit"] for k, v in metrics.items()}, expected, workload)

    def test_traced_metrics_are_the_per_layer_metrics(self):
        expected = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        for workload in WORKLOADS:
            code, lines, result = smoke(workload, 5, trace=1)
            self.assertEqual(code, 0, workload)
            self.assertTrue(result["correct"], [l for l in lines if l.startswith("CHECK")])
            self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, expected)

    def test_same_seed_same_inputs_and_digests(self):
        for workload in WORKLOADS:
            _, first, _ = self.runs[workload]
            _, again, _ = smoke(workload, 5)
            for prefix in ("inputs_digest", "output_digest"):
                self.assertIsNotNone(line_starting(first, prefix))
                self.assertEqual(line_starting(first, prefix), line_starting(again, prefix),
                                 (workload, prefix))

    def test_different_seed_different_inputs(self):
        for workload in WORKLOADS:
            _, first, _ = self.runs[workload]
            _, other, _ = smoke(workload, 6)
            self.assertNotEqual(line_starting(first, "inputs_digest"),
                                line_starting(other, "inputs_digest"), workload)

    def test_bad_arguments_fail_without_a_result(self):
        done = subprocess.run([run.BINARY, "--workload", "nope", "--seed", "1", "--seconds",
                               "1", "--trace", "0"], capture_output=True, text=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        done = subprocess.run([run.BINARY, "--seed", "x"], capture_output=True, text=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
