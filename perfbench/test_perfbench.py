#!/usr/bin/env python3
"""The benchmark's own checks; builds the driver first if needed.

    python3 perfbench/test_perfbench.py

Covers what the timed runs rely on but do not show: tables stay under the
FLOW_STATS reply limit, same-seed runs repeat every count and digest
exactly while another seed changes the inputs, the default seed matches the
recorded outputs, BENCHMARK.json lists exactly the metrics run.py prints,
and a directory without the library sources fails without a result line.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

STATS_REPLY_RULE_LIMIT = 682

# Per-layer metrics that count work; the rest derive from wall time.
COUNTS = [name for name, unit in run.PER_LAYER
          if unit.startswith(("count", "bytes"))
          or name in ("executor.retry_share", "transaction.reconciled_share")]


def driver(workload, seed, ops, trace=False):
    return run.run_driver(workload, seed, ops=ops, trace=trace)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("perfbench_driver does not build")

    def test_tables_stay_under_stats_reply_limit(self):
        worst = 0
        for seed in range(1, 31):
            worst = max(worst, driver("te_update", seed, 2)["max_table_rules"])
        worst = max(worst, driver("switch_inference", 1, 10)["max_table_rules"])
        self.assertGreater(worst, 0)
        self.assertLessEqual(worst, STATS_REPLY_RULE_LIMIT)

    def test_same_seed_repeats_counts_and_digests(self):
        for workload, ops in (("te_update", 4), ("switch_inference", 10),
                              ("chaos_recovery", 6)):
            with self.subTest(workload=workload):
                a = driver(workload, 7, ops, trace=True)
                b = driver(workload, 7, ops, trace=True)
                self.assertEqual([op["digest"] for op in a["ops"]],
                                 [op["digest"] for op in b["ops"]])
                for name in COUNTS:
                    self.assertEqual(a["layers"][name], b["layers"][name], name)
                self.assertEqual(run.check_ops(workload, a["ops"]), [])

    def test_other_seed_changes_inputs(self):
        for workload, ops in (("te_update", 2), ("switch_inference", 10),
                              ("chaos_recovery", 6)):
            with self.subTest(workload=workload):
                a = driver(workload, 1, ops)["ops"]
                b = driver(workload, 2, ops)["ops"]
                self.assertNotEqual([op["digest"] for op in a],
                                    [op["digest"] for op in b])

    def test_default_seed_matches_recorded_outputs(self):
        for workload, ops in (("te_update", 6), ("switch_inference", 20),
                              ("chaos_recovery", 60)):
            with self.subTest(workload=workload):
                expected = run.expected_digests(workload)
                got = driver(workload, run.DEFAULT_SEED, ops)["ops"]
                self.assertTrue(all(op["key"] in expected for op in got))
                self.assertEqual(run.check_ops(workload, got), [])

    def test_checks_catch_a_wrong_digest(self):
        op = driver("chaos_recovery", run.DEFAULT_SEED, 1)["ops"][0]
        op["digest"] = "0" * 16
        self.assertEqual(len(run.check_ops("chaos_recovery", [op])), 1)

    def test_benchmark_json_lists_the_printed_metrics(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.E2E))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(run.PER_LAYER))

    def test_fails_without_library_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(run.HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "te_update",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
