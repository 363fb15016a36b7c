"""Tests of run.py's result-line checks and of BENCHMARK.json's shape.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402


def result(metrics, **over):
    obj = {"correct": True, "attempted": 5, "failed": 0,
           "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    obj.update(over)
    return obj


class ValidateResult(unittest.TestCase):
    units = {"p50_ms": "ms", "setup_s": "s"}

    def test_accepts_exact_schema(self):
        run.validate_result(result({"p50_ms": (0.3, "ms"), "setup_s": (1, "s")}), self.units)

    def test_rejects_extra_top_level_key(self):
        obj = result({"p50_ms": (0.3, "ms"), "setup_s": (1, "s")})
        obj["context"] = {}
        with self.assertRaises(ValueError):
            run.validate_result(obj, self.units)

    def test_rejects_missing_metric_and_wrong_unit(self):
        with self.assertRaises(ValueError):
            run.validate_result(result({"p50_ms": (0.3, "ms")}), self.units)
        with self.assertRaises(ValueError):
            run.validate_result(result({"p50_ms": (0.3, "s"), "setup_s": (1, "s")}), self.units)

    def test_rejects_non_numbers_and_bad_counts(self):
        for bad in (None, float("nan"), True, "1"):
            with self.assertRaises(ValueError):
                run.validate_result(result({"p50_ms": (bad, "ms"), "setup_s": (1, "s")}), self.units)
        for over in ({"attempted": 0}, {"failed": -1}, {"attempted": 1.5}, {"correct": 1}):
            with self.assertRaises(ValueError):
                run.validate_result(result({"p50_ms": (0.3, "ms"), "setup_s": (1, "s")}, **over),
                                    self.units)

    def test_overhead_share(self):
        self.assertAlmostEqual(run.overhead_share(0.4, 0.5), 0.25)
        self.assertAlmostEqual(run.overhead_share(0.4, 0.38), -0.05)


class BenchmarkSpec(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()

    def test_keys_and_workloads(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds", "workloads",
                                          "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(run.WORKLOADS))

    def test_setup_metric_and_bounds(self):
        e2e = {m["name"]: m for m in self.spec["end_to_end"]}
        self.assertEqual(e2e["setup_s"]["unit"], "s")
        self.assertEqual(e2e["setup_s"]["better"], "lower")
        self.assertEqual(e2e["setup_s"]["bound"], max(m["bound"] for m in e2e.values()))
        for m in e2e.values():
            self.assertLessEqual(m["bound"], 0.25)

    def test_metric_reference_lists_every_metric(self):
        with open(os.path.join(run.HERE, "METRICS.md")) as f:
            doc = f.read()
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertIn("`%s`" % m["name"], doc)


if __name__ == "__main__":
    unittest.main()
