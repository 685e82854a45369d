"""Self-tests of the benchmark's own arithmetic and failure accounting.

    python3 benchmark/selftest.py
"""
from __future__ import annotations

import json
import os
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
from run import (  # noqa: E402
    EXPECTED, ROOT, end_to_end, remove_workdir, tail_percentile, verify,
)
from tracer import covered_time, self_times, summarize  # noqa: E402


def span(name, layer, start, end, parent, scenario="s", error=None, size=None):
    return (name, layer, start, end, parent, scenario, error, size)


class SelfTime(unittest.TestCase):
    def test_span_tree(self):
        spans = [
            span("main", "cli", 0.0, 10.0, -1),
            span("CoefficientField.at", "slicing", 1.0, 4.0, 0),
            span("FrontTrackingRun.fronts_at", "tracking", 2.0, 3.0, 1),
            span("l1_identity_report", "ledger", 5.0, 9.0, 0),
            span("CoefficientField.at", "slicing", 6.0, 7.5, 3,
                 error="DegenerateFieldError"),
            span("main", "cli", 12.0, 13.0, -1, scenario="t"),
        ]
        self.assertEqual(self_times(spans), [3.0, 2.0, 1.0, 2.5, 1.5, 1.0])
        info = summarize(spans)
        self.assertEqual(info["by_layer"]["slicing"], {"calls": 2, "self_s": 3.5})
        self.assertEqual(info["degenerate"], 1)
        # self times add up to the time covered by the two root spans
        total = sum(rec["self_s"] for rec in info["by_layer"].values())
        self.assertEqual(total, 11.0)
        # the ledger's nested slice is counted once
        self.assertEqual(covered_time(spans, {"slicing", "ledger"}),
                         {"s": 7.0})

    def test_overlapping_children_count_once(self):
        spans = [span("main", "cli", 0.0, 10.0, -1),
                 span("a", "x", 1.0, 4.0, 0), span("b", "x", 3.0, 6.0, 0),
                 span("c", "x", 9.0, 12.0, 0)]
        self.assertEqual(self_times(spans)[0], 4.0)


class TailPercentile(unittest.TestCase):
    def test_stated_n(self):
        self.assertEqual(tail_percentile(list(range(1, 31))), (66, 20))
        self.assertEqual(tail_percentile(list(range(1, 101))), (90, 90))
        self.assertEqual(tail_percentile(list(range(1, 21))), (50, 10))
        self.assertEqual(tail_percentile([3.0, 1.0, 2.0]), (100, 3.0))
        self.assertEqual(tail_percentile(list(range(1, 20))), (100, 19))

    def test_at_least_ten_beyond_and_highest(self):
        for n in range(20, 400):
            xs = list(range(n))
            p, value = tail_percentile(xs)
            self.assertGreaterEqual(sum(x > value for x in xs), 10, n)
            rank_next = -(-(p + 1) * n // 100)
            self.assertLess(n - rank_next, 10, n)


class FailureAccounting(unittest.TestCase):
    def test_horizon_degenerate_rational_seed(self):
        workdir = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
        try:
            scenarios = [sc for sc in child.setup("suite_exact", workdir)
                         if sc["id"] in ("exact-7000", "exact-7002")]
            result = child.run_passes(scenarios, 0, 1, workdir)
            result["scenarios"] = scenarios
            digests = json.loads(EXPECTED.read_text())["digests"]["suite_exact"]
            outcomes, problems = verify(result, digests)
        finally:
            remove_workdir(workdir)
        self.assertEqual(problems, [])
        by_id = {o["id"]: o for o in outcomes}
        self.assertFalse(by_id["exact-7000"]["failed"])
        bad = by_id["exact-7002"]
        self.assertTrue(bad["failed"])
        self.assertEqual(bad["seed"], 7002)
        self.assertIn("exit 2: degenerate geometry", bad["reasons"][0])
        metrics, _ = end_to_end([0.1], result, outcomes)
        self.assertEqual(metrics["ok_frac"][0], 0.5)


if __name__ == "__main__":
    unittest.main()
