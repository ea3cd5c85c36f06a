"""Tests of the ledger arithmetic: self time, span nesting and the tail rule.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import ledger  # noqa: E402


def span(name, start, end):
    return {"name": name, "start": start, "dur": end - start}


class SelfTimeTest(unittest.TestCase):
    def test_no_children_is_the_whole_span(self):
        self.assertAlmostEqual(ledger.self_time((1.0, 4.0), []), 3.0)

    def test_disjoint_children_are_subtracted(self):
        self.assertAlmostEqual(
            ledger.self_time((0.0, 10.0), [(1.0, 3.0), (5.0, 6.0)]), 7.0)

    def test_overlapping_children_count_once(self):
        # Children on several threads may overlap; their union is covered.
        self.assertAlmostEqual(
            ledger.self_time((0.0, 10.0), [(1.0, 5.0), (4.0, 6.0)]), 5.0)

    def test_children_are_clipped_to_the_parent(self):
        self.assertAlmostEqual(
            ledger.self_time((2.0, 6.0), [(0.0, 3.0), (5.0, 9.0)]), 2.0)

    def test_fully_covered_span_has_no_self_time(self):
        self.assertAlmostEqual(
            ledger.self_time((0.0, 2.0), [(0.0, 1.0), (1.0, 2.0)]), 0.0)

    def test_union_length_ignores_empty_intervals(self):
        self.assertAlmostEqual(
            ledger.union_length([(3.0, 3.0), (1.0, 2.0), (5.0, 4.0)]), 1.0)


class TreeTest(unittest.TestCase):
    def test_nesting_by_containment(self):
        roots = ledger.build_tree([
            span("core.cluster", 0.0, 10.0),
            span("pass1.consume", 1.0, 2.0),
            span("aggregate2", 3.0, 7.0),
            span("report", 8.0, 9.5),
            span("seq.read_fasta", 11.0, 12.0),
        ])
        self.assertEqual([r["name"] for r in roots],
                         ["core.cluster", "seq.read_fasta"])
        self.assertEqual([c["name"] for c in roots[0]["children"]],
                         ["pass1.consume", "aggregate2", "report"])
        # 10 s of cluster minus 1 + 4 + 1.5 s of child spans.
        self.assertAlmostEqual(ledger.node_self_time(roots[0]), 3.5)

    def test_grandchildren_count_against_their_parent_only(self):
        roots = ledger.build_tree([
            span("bench.build", 0.0, 10.0),
            span("align.build_homology_graph", 1.0, 6.0),
            span("homology.seed", 1.5, 3.0),
            span("homology.verify", 3.0, 5.5),
        ])
        totals = ledger.self_times_by(
            roots, lambda n: "align" if n.startswith(("align", "homology"))
            else "unattributed")
        # The workload root keeps 10 - 5 s; align keeps its own 5 s split
        # between the call's 1 s and its stages' 4 s.
        self.assertAlmostEqual(totals["unattributed"], 5.0)
        self.assertAlmostEqual(totals["align"], 5.0)

    def test_layer_self_times_sum_to_root_wall(self):
        roots = ledger.build_tree([
            span("bench.batch", 0.0, 4.0),
            span("ingest.ingest_with_delta", 0.5, 3.0),
            span("ingest.recluster", 1.0, 2.0),
            span("aggregate2", 1.2, 1.7),
            span("serve.reload_with_delta", 3.0, 3.9),
        ])
        totals = ledger.self_times_by(roots, lambda n: n.split(".")[0])
        self.assertAlmostEqual(sum(totals.values()), 4.0)
        self.assertAlmostEqual(totals["aggregate2"], 0.5)
        self.assertAlmostEqual(totals["ingest"], 2.5 - 0.5)


class TailTest(unittest.TestCase):
    def test_needs_ten_samples_beyond_the_median(self):
        self.assertIsNone(ledger.tail(list(range(19))))
        self.assertEqual(ledger.tail(list(range(1, 21))), (50.0, 10))

    def test_highest_percentile_with_ten_beyond(self):
        # 100 samples: p90 leaves exactly 10 beyond, p95 only 5.
        self.assertEqual(ledger.tail(list(range(1, 101))), (90.0, 90))
        # 1000 samples: p99 leaves 10 beyond, p99.9 only 1.
        self.assertEqual(ledger.tail(list(range(1, 1001))), (99.0, 990))

    def test_just_short_of_the_next_percentile(self):
        # 199 samples: p95 is rank 190 with 9 beyond, so p90 (rank 180).
        self.assertEqual(ledger.tail(list(range(1, 200))), (90.0, 180))

    def test_sample_order_does_not_matter(self):
        values = [float((i * 37) % 101) for i in range(101)]
        self.assertEqual(ledger.tail(values), ledger.tail(sorted(values)))


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(ledger.nearest_rank(values, 99), 99)
        self.assertEqual(ledger.nearest_rank(values, 100), 100)
        self.assertEqual(ledger.nearest_rank([5.0], 99), 5.0)

    def test_median(self):
        self.assertEqual(ledger.median([3, 1, 2]), 2)
        self.assertEqual(ledger.median([4, 1, 2, 3]), 2.5)
        with self.assertRaises(ValueError):
            ledger.median([])


if __name__ == "__main__":
    unittest.main()
