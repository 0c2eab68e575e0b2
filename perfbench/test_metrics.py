#!/usr/bin/env python3
"""Tests of the benchmark's own arithmetic (metrics.py).

    python3 perfbench/test_metrics.py
"""

import statistics
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics  # noqa: E402


def span(name, start, end, parent=-1, enclosing=None, thread=0, op=0):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "enclosing": parent if enclosing is None else enclosing,
            "op": op, "thread": thread}


class SelfTime(unittest.TestCase):
    def test_leaf_is_its_duration(self):
        self.assertEqual(metrics.self_times([span("a", 10, 25)]), [15])

    def test_nested_children_are_subtracted(self):
        spans = [span("run", 0, 100),
                 span("amr", 10, 40, parent=0),
                 span("partition", 50, 60, parent=0),
                 span("inner", 20, 30, parent=1)]
        self.assertEqual(metrics.self_times(spans), [60, 20, 10, 10])

    def test_parallel_children_count_once(self):
        # Two runs of one op on two threads overlap in time: the op's self
        # time is what neither covers, never negative.
        spans = [span("op", 0, 100),
                 span("run", 0, 90, parent=0, thread=0),
                 span("run", 5, 95, parent=0, enclosing=-1, thread=1)]
        self.assertEqual(metrics.self_times(spans)[0], 5)

    def test_stolen_task_leaves_the_waiting_span(self):
        # Thread 0 waits inside its partition span and helps by running a
        # second run of the op: that run is caused by the op but nested in
        # the partition span, whose self time must exclude it.
        spans = [span("op", 0, 100),
                 span("run", 0, 100, parent=0),
                 span("partition", 10, 80, parent=1),
                 span("run", 20, 70, parent=0, enclosing=2)]
        selfs = metrics.self_times(spans)
        self.assertEqual(selfs[2], 20)
        self.assertEqual(selfs[1], 30)
        self.assertEqual(selfs[3], 50)

    def test_children_are_clipped_to_the_span(self):
        spans = [span("a", 10, 20), span("b", 5, 15, parent=0)]
        self.assertEqual(metrics.self_times(spans)[0], 5)

    def test_busy_time_merges_nested_children_per_thread(self):
        spans = [span("op", 0, 100),
                 span("run", 0, 60, parent=0, thread=0),
                 span("run", 10, 20, parent=0, enclosing=1, thread=0),
                 span("run", 0, 80, parent=0, enclosing=-1, thread=1)]
        self.assertEqual(metrics.busy_per_thread(spans, 0), 140)


class Percentiles(unittest.TestCase):
    def test_tail_needs_ten_samples_beyond(self):
        self.assertIsNone(metrics.tail_percentile(99))
        self.assertEqual(metrics.tail_percentile(100), 90.0)
        self.assertEqual(metrics.tail_percentile(999), 90.0)
        self.assertEqual(metrics.tail_percentile(1000), 99.0)
        self.assertEqual(metrics.tail_percentile(10000), 99.9)

    def test_nearest_rank(self):
        values = list(range(100, 0, -1))  # 1..100, unordered
        self.assertEqual(metrics.percentile(values, 90), 90)
        self.assertEqual(metrics.percentile(values, 50), 50)
        self.assertEqual(metrics.percentile([3.0], 90), 3.0)
        # Exactly ten samples lie beyond p90 of 100.
        self.assertEqual(sum(v > metrics.percentile(values, 90)
                             for v in values), 10)

    def test_spread_matches_statistics_quantiles(self):
        values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(metrics.spread(values),
                               (q3 - q1) / statistics.median(values))


class Digests(unittest.TestCase):
    def test_equal_and_rounding_close_digests_match(self):
        self.assertTrue(metrics.digests_match([1.0, 2.0], [1.0, 2.0]))
        self.assertTrue(metrics.digests_match([426.80051, 3e8],
                                              [426.80051 + 1e-9, 3e8]))

    def test_changed_entry_or_length_mismatches(self):
        self.assertFalse(metrics.digests_match([1.0, 2.0], [1.0, 2.001]))
        self.assertFalse(metrics.digests_match([1.0, 2.0], [1.0]))
        self.assertFalse(metrics.digests_match([16.0], [17.0]))
        self.assertFalse(metrics.digests_match([0.0], [1e-300]))

    def test_failed_ops_counts_errors_and_mismatches(self):
        ops = [{"id": 0, "error": "", "digest": [1.0]},
               {"id": 1, "error": "", "digest": [2.0]},
               {"id": 2, "error": "exception: boom", "digest": []},
               {"id": 3, "error": "", "digest": [4.0]}]
        reference = {0: [1.0], 1: [2.5]}  # op 3 has no reference entry
        self.assertEqual(metrics.failed_ops(ops, reference), {1, 2})


class Reductions(unittest.TestCase):
    def doc(self):
        ms = 1_000_000
        spans = [span("op", 0, 100 * ms),
                 span("runtime.run", 0, 90 * ms, parent=0),
                 span("amr.boxes", 10 * ms, 70 * ms, parent=1),
                 span("partition", 70 * ms, 80 * ms, parent=1)]
        ops = [{"id": 0, "traced": True, "start_ns": 0, "end_ns": 100 * ms,
                "iters": 10},
               {"id": 1, "traced": False, "start_ns": 100 * ms,
                "end_ns": 190 * ms, "iters": 10}]
        counters = {"amr.epochs": 3, "amr.distinct_epochs": 1,
                    "sfc.index_candidates": 8, "sfc.index_hits": 2}
        return {"spans": spans, "ops": ops, "counters": counters,
                "threads": 1, "peak_rss_mb": 12.5, "setup_s": 3.0,
                "probe_ns": [metrics.PROBE_REF_NS // 2] * 2}

    def test_layer_metrics(self):
        m = {k: v for k, (v, _) in metrics.layer_metrics(self.doc()).items()}
        self.assertAlmostEqual(m["amr.trace_s"], 0.060)
        self.assertAlmostEqual(m["partition.s"], 0.010)
        self.assertAlmostEqual(m["runtime.self_s"], 0.020)
        self.assertAlmostEqual(m["amr.distinct_frac"], 1 / 3)
        self.assertAlmostEqual(m["sfc.hit_ratio"], 0.25)
        self.assertAlmostEqual(m["pool.parallel_eff"], 0.9)
        self.assertAlmostEqual(m["trace.overhead_frac"], 1 - 90 / 100)
        self.assertEqual(m["sim.events_per_s"], 0.0)

    def test_overhead_rescales_each_half_by_its_probes(self):
        # The untraced op ran while the host was twice as slow (its probe
        # took twice as long): the two halves' reference rates are equal.
        doc = self.doc()
        doc["ops"][1]["end_ns"] = doc["ops"][1]["start_ns"] + 200_000_000
        doc["probe_ns"] = [metrics.PROBE_REF_NS, 2 * metrics.PROBE_REF_NS]
        m = metrics.layer_metrics(doc)
        self.assertAlmostEqual(m["trace.overhead_frac"][0], 0.0)

    def test_end_to_end_in_reference_seconds(self):
        # The probe ran twice as fast as on the reference host, so every
        # host second counts as two reference seconds.
        doc = self.doc()
        setups = [dict(doc, setup_s=s, probe_ns=[p])
                  for s, p in ((1.0, metrics.PROBE_REF_NS),
                               (2.0, metrics.PROBE_REF_NS * 2))]
        m = {k: v for k, (v, _) in
             metrics.end_to_end(doc, setups + [doc]).items()}
        self.assertAlmostEqual(m["iters_per_s"], 20 / 0.19 / 2)
        self.assertAlmostEqual(m["op_s.p50"], 0.095 * 2)
        self.assertEqual(m["setup_s"], 1.0)  # median of 1.0, 1.0, 6.0
        self.assertEqual(m["peak_rss_mb"], 12.5)

    def test_host_factor_is_a_median(self):
        doc = {"probe_ns": [metrics.PROBE_REF_NS, 10 ** 12,
                            metrics.PROBE_REF_NS * 2]}
        self.assertEqual(metrics.host_factor(doc), 0.5)


if __name__ == "__main__":
    unittest.main()
