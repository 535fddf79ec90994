#!/usr/bin/env python3
"""Fixture self-test of benchmark/compare.py. Run: python3 benchmark/test_compare.py"""

import io
import json
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stdout

sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

BENCH = {
    "workloads": [{"name": "alpha", "why": "x"}, {"name": "beta", "why": "y"}],
    "end_to_end": [
        {"name": "jobs_per_s", "unit": "jobs/s", "better": "higher", "bound": 0.1},
        {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
    ],
}


def record(workload, jobs_per_s, latency_ms, trace=0):
    return {"workload": workload, "seed": 1, "trace": trace, "correct": True, "attempted": 1,
            "failed": 0, "metrics": {"jobs_per_s": {"value": jobs_per_s, "unit": "jobs/s"},
                                     "latency_p50_ms": {"value": latency_ms, "unit": "ms"}}}


class CompareTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.bench = os.path.join(self.dir.name, "BENCHMARK.json")
        with open(self.bench, "w", encoding="utf-8") as f:
            json.dump(BENCH, f)

    def tearDown(self):
        self.dir.cleanup()

    def write(self, name, records):
        path = os.path.join(self.dir.name, name)
        with open(path, "w", encoding="utf-8") as f:
            for r in records:
                f.write(json.dumps(r) + "\n")
        return path

    def run_compare(self, base, change):
        out = io.StringIO()
        with redirect_stdout(out):
            code = compare.main([base, change, "--bench", self.bench])
        return code, out.getvalue()

    def test_same_distribution_passes_with_one_row_per_workload(self):
        runs = [record(w, 10.0 + 0.1 * i, 100.0 - 0.5 * i) for w in ("alpha", "beta")
                for i in range(5)]
        code, out = self.run_compare(self.write("a", runs), self.write("b", runs))
        self.assertEqual(code, 0)
        rows = [line for line in out.splitlines() if line.startswith("| alpha")
                or line.startswith("| beta")]
        self.assertEqual(len(rows), 2)
        self.assertEqual(out.count(" pass"), 4)

    def test_direction_decides_regressed_and_improved(self):
        base = [record("alpha", 10.0 + 0.1 * i, 100.0 + i) for i in range(5)]
        slower = [record("alpha", 8.0 + 0.1 * i, 130.0 + i) for i in range(5)]
        code, out = self.run_compare(self.write("a", base), self.write("b", slower))
        self.assertEqual(code, 1)
        self.assertEqual(out.count("regressed"), 2)
        code, out = self.run_compare(self.write("a", slower), self.write("b", base))
        self.assertEqual(code, 0)
        self.assertEqual(out.count("improved"), 2)

    def test_wide_spread_is_unresolved(self):
        base = [record("alpha", v, 100.0) for v in (5.0, 10.0, 15.0, 20.0, 8.0)]
        change = [record("alpha", v, 100.0) for v in (6.0, 11.0, 14.0, 19.0, 9.0)]
        code, out = self.run_compare(self.write("a", base), self.write("b", change))
        self.assertEqual(code, 1)
        self.assertIn("unresolved", out)

    def test_wide_spread_but_better_everywhere_is_improved(self):
        base = [record("alpha", v, 100.0) for v in (5.0, 6.0, 8.0, 9.0)]
        change = [record("alpha", v, 100.0) for v in (12.0, 15.0, 20.0, 25.0)]
        code, out = self.run_compare(self.write("a", base), self.write("b", change))
        self.assertEqual(code, 0)
        self.assertIn("improved", out)
        self.assertNotIn("unresolved", out)

    def test_traced_runs_and_one_sided_workloads_are_ignored(self):
        base = [record("alpha", 10.0, 100.0), record("beta", 1.0, 1.0),
                record("alpha", 1.0, 1.0, trace=1)]
        change = [record("alpha", 10.0, 100.0)]
        code, out = self.run_compare(self.write("a", base), self.write("b", change))
        self.assertEqual(code, 0)
        self.assertIn("| alpha", out)
        self.assertNotIn("| beta", out)


if __name__ == "__main__":
    unittest.main()
