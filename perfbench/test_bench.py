#!/usr/bin/env python3
"""Tests of the hmem benchmark itself, on tiny app sizes.

    python3 perfbench/test_bench.py

Builds hmem_bench through run.py (like a measured run) and checks that:
  * a tiny run of every workload prints every metric BENCHMARK.json names,
    with its unit, untraced (end-to-end) and traced (per-layer);
  * two seeds both pass every correctness check;
  * a single flipped byte in the streamed schedule report makes the
    trace_advise oracle fail every op (a negative test of the check).
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed=1, trace=0, extra=()):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0.3",
         "--trace", str(trace), "--tiny", *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"run.py failed:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkTest(unittest.TestCase):
    def assert_metrics(self, result, declared):
        expected = {m["name"]: m["unit"] for m in declared}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_every_metric_is_printed_with_its_unit(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.assert_metrics(run(w["name"], trace=0),
                                    SPEC["end_to_end"])
                self.assert_metrics(run(w["name"], trace=1),
                                    SPEC["per_layer"])

    def test_two_seeds_pass_every_check(self):
        for w in SPEC["workloads"]:
            for seed in (3, 4):
                with self.subTest(workload=w["name"], seed=seed):
                    result = run(w["name"], seed=seed)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(
                        result["metrics"]["ok_ratio"]["value"], 1.0)

    def test_flipped_stream_report_byte_fails_the_oracle(self):
        result = run("trace_advise", extra=["--flip-stream-report"])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertEqual(result["metrics"]["ok_ratio"]["value"], 0.0)


if __name__ == "__main__":
    unittest.main()
