"""Unit tests of the benchmark's Python side.

    python3 -m unittest -v test_stats      (from perfbench/)
"""

import json
import re
import unittest
from pathlib import Path

import run
import stats

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class PercentileTest(unittest.TestCase):
    def test_known_samples(self):
        xs = list(range(1, 11))
        self.assertEqual(stats.percentile(xs, 50), 5.5)
        self.assertEqual(stats.percentile(xs, 0), 1)
        self.assertEqual(stats.percentile(xs, 100), 10)
        self.assertAlmostEqual(stats.percentile(range(1, 101), 90), 90.1)
        self.assertEqual(stats.percentile([7.0], 90), 7.0)
        self.assertEqual(stats.percentile([3, 1, 2], 50), 2)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1], 101)

    def test_sample_counts(self):
        self.assertEqual(stats.samples_above(100, 90), 10)
        self.assertEqual(stats.samples_above(92, 90), 10)
        self.assertEqual(stats.samples_above(91, 90), 9)
        self.assertEqual(stats.samples_above(10, 50), 5)
        self.assertEqual(stats.samples_above(0, 50), 0)

    def test_p90_needs_ten_samples_above(self):
        self.assertEqual(stats.summarize(range(100), 90)[1:], (100, True))
        self.assertEqual(stats.summarize(range(92), 90)[1:], (92, True))
        self.assertEqual(stats.summarize(range(91), 90)[1:], (91, False))
        self.assertEqual(stats.summarize([1.0], 50)[1:], (1, True))


class MetricNameTest(unittest.TestCase):
    def test_names_are_well_formed_and_unique(self):
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        names += [w["name"] for w in SPEC["workloads"]]
        for n in names:
            self.assertRegex(n, stats.METRIC_NAME.pattern + r"\Z")
            self.assertRegex(n, r"\A[A-Za-z0-9]")
        metric_names = [m["name"] for m in
                        SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(metric_names), len(set(metric_names)))

    def test_workloads_match_runner(self):
        self.assertEqual(tuple(w["name"] for w in SPEC["workloads"]),
                         run.WORKLOADS)

    def test_every_end_to_end_metric_is_computed(self):
        raw = {"setup_s": [1.0, 2.0], "unit_wall_s": [3.0],
               "stored_ratio": [0.5], "ckpt_ms": [4.0], "restart_ms": [5.0],
               "peak_rss_mib": 6.0, "attempted": 1, "failed": 0,
               "extra": {"extra_iters": 2, "virtual_s": 9.0}}
        e2e = run.end_to_end(raw)
        for m in SPEC["end_to_end"]:
            self.assertIn(m["name"], e2e)
        self.assertEqual(e2e["setup_s"][0], 1.5)

    def test_every_per_layer_metric_is_emitted(self):
        src = (HERE / "lckbench.cpp").read_text()
        emitted = set(re.findall(r'\.num\("([^"]+)"', src))
        for m in SPEC["per_layer"]:
            self.assertIn(m["name"], emitted)


if __name__ == "__main__":
    unittest.main()
