#!/usr/bin/env python3
"""Unit tests for tools/compare_bench.py's field classification and gate
direction. Run from the repo root: python3 tools/test_compare_bench.py"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True

import compare_bench  # noqa: E402


class ClassifyTest(unittest.TestCase):
    def test_throughput_is_not_a_duration(self):
        self.assertEqual(compare_bench.classify("rows.4.queries_per_s"),
                         "throughput")
        self.assertEqual(compare_bench.classify("cells_per_s"), "throughput")

    def test_host_duration(self):
        self.assertEqual(compare_bench.classify("baseline.exact.seed_s"),
                         "host")
        self.assertEqual(compare_bench.classify("wall_s"), "host")

    def test_modeled_duration(self):
        self.assertEqual(compare_bench.classify("device.kernel_modeled_s"),
                         "modeled")

    def test_exact_leaves(self):
        for path in ("workload.sequences", "budget.within_budget",
                     "baseline.exact.peak_candidate_bytes", "bench",
                     "rows.0.status"):
            self.assertEqual(compare_bench.classify(path), "exact", path)

    def test_skip_substrings_win(self):
        self.assertEqual(compare_bench.classify("rows.0.speedup_per_s"),
                         "skip")
        self.assertEqual(compare_bench.classify("latency_p99_s"), "skip")


class GateDirectionTest(unittest.TestCase):
    def run_gate(self, base, cur):
        paths = []
        for doc in (base, cur):
            f = tempfile.NamedTemporaryFile("w", suffix=".json",
                                            delete=False)
            json.dump(doc, f)
            f.close()
            paths.append(f.name)
        try:
            with open(os.devnull, "w") as sink:
                stdout, sys.stdout = sys.stdout, sink
                try:
                    return compare_bench.main(["compare_bench"] + paths)
                finally:
                    sys.stdout = stdout
        finally:
            for p in paths:
                os.unlink(p)

    def test_throughput_speedup_passes_and_collapse_fails(self):
        self.assertEqual(self.run_gate({"q_per_s": 1000.0},
                                       {"q_per_s": 4000.0}), 0)
        self.assertEqual(self.run_gate({"q_per_s": 4000.0},
                                       {"q_per_s": 1000.0}), 1)

    def test_duration_slowdown_fails_and_speedup_passes(self):
        self.assertEqual(self.run_gate({"seed_s": 1.0}, {"seed_s": 4.0}), 1)
        self.assertEqual(self.run_gate({"seed_s": 4.0}, {"seed_s": 1.0}), 0)


if __name__ == "__main__":
    unittest.main()
