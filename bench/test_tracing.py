"""Tests of the benchmark's span arithmetic and percentile selection.

    python3 -m pytest bench
"""
from __future__ import annotations

import threading
import unittest

from tracing import Span, Tracer, covered, percentile, self_times, tail_percentile


class SelfTimeTest(unittest.TestCase):
    def test_union_counts_overlap_once(self):
        self.assertEqual(covered([(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)]), 5.0)
        self.assertEqual(covered([(0.0, 4.0), (1.0, 2.0)]), 4.0)
        self.assertEqual(covered([]), 0.0)

    def test_self_time_is_span_minus_child_coverage(self):
        spans = [
            Span(1, None, "stage", 0.0, 10.0),
            Span(2, 1, "a", 1.0, 3.0),
            Span(3, 1, "b", 2.0, 5.0),  # overlaps a, as pool workers do
            Span(4, 1, "c", 7.0, 8.0),
            Span(5, 2, "grandchild", 1.5, 2.5),  # only reduces a, not stage
        ]
        selfs = self_times(spans)
        self.assertEqual(selfs[1], 5.0)
        self.assertEqual(selfs[2], 1.0)
        self.assertEqual(selfs[3], 3.0)
        self.assertEqual(selfs[5], 1.0)

    def test_children_are_clipped_to_the_parent(self):
        spans = [Span(1, None, "p", 2.0, 6.0), Span(2, 1, "c", 0.0, 3.0), Span(3, 1, "d", 9.0, 10.0)]
        self.assertEqual(self_times(spans)[1], 3.0)

    def test_worker_thread_spans_parent_under_the_open_main_span(self):
        tracer = Tracer()
        def work():
            with tracer.span("complete"):
                with tracer.span("parse_table"):
                    pass

        with tracer.span("run_suite") as outer:
            worker = threading.Thread(target=work)
            worker.start()
            worker.join(timeout=10)
        self.assertFalse(worker.is_alive())
        by_name = {s.name: s for s in tracer.spans}
        self.assertEqual(by_name["complete"].parent, outer.id)
        self.assertEqual(by_name["parse_table"].parent, by_name["complete"].id)
        self.assertIsNone(by_name["run_suite"].parent)


class PercentileTest(unittest.TestCase):
    def test_tail_needs_ten_samples_beyond(self):
        self.assertIsNone(tail_percentile(19))
        self.assertEqual(tail_percentile(20), "50")
        self.assertEqual(tail_percentile(99), "50")
        self.assertEqual(tail_percentile(100), "90")
        self.assertEqual(tail_percentile(999), "90")
        self.assertEqual(tail_percentile(1000), "99")
        self.assertEqual(tail_percentile(1056), "99")
        self.assertEqual(tail_percentile(9999), "99")
        self.assertEqual(tail_percentile(10000), "99.9")
        self.assertEqual(tail_percentile(100000), "99.99")

    def test_nearest_rank(self):
        values = [float(v) for v in range(1000, 0, -1)]
        self.assertEqual(percentile(values, "50"), 500.0)
        self.assertEqual(percentile(values, "99"), 990.0)
        self.assertEqual(percentile(values, "99.9"), 999.0)
        self.assertEqual(sum(v > percentile(values, "99") for v in values), 10)
        self.assertEqual(percentile([3.0], "99"), 3.0)


if __name__ == "__main__":
    unittest.main()
