"""Tests of the benchmark's own summarizing code.

Run from the repository root:
  python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import compare  # noqa: E402
import summary  # noqa: E402


class Percentile(unittest.TestCase):
    def test_interpolates_between_order_statistics(self):
        xs = list(range(1, 22))  # 21 samples: exactly 10 beyond the median
        self.assertEqual(summary.percentile(xs, 0.5), (11, 21))
        self.assertAlmostEqual(summary.percentile([4.0, 1.0, 3.0, 2.0] * 10, 0.5)[0], 2.5)

    def test_reports_sample_count(self):
        xs = [float(i) for i in range(5000)]
        value, n = summary.percentile(xs, 0.99)
        self.assertEqual(n, 5000)
        self.assertAlmostEqual(value, 4949.01)

    def test_needs_ten_samples_beyond(self):
        self.assertEqual(summary.samples_beyond(1000, 0.99), 10)
        summary.percentile(list(range(1000)), 0.99)
        with self.assertRaises(summary.NotEnoughSamples):
            summary.percentile(list(range(900)), 0.99)
        with self.assertRaises(summary.NotEnoughSamples):
            summary.percentile(list(range(19)), 0.5)
        with self.assertRaises(summary.NotEnoughSamples):
            summary.percentile([], 0.5)

    def test_p50_or_zero_where_a_layer_saw_no_work(self):
        self.assertEqual(summary.p50_or_zero([]), 0.0)
        self.assertEqual(summary.p50_or_zero(list(range(21))), 10)


class QuietPool(unittest.TestCase):
    @staticmethod
    def phase(slice_latencies, per_slice):
        """Requests evenly spread through 0.1 s slices, one latency per slice."""
        lat, done = [], []
        for k, l in enumerate(slice_latencies):
            for j in range(per_slice):
                lat.append(l)
                done.append((k + (j + 0.5) / per_slice) * summary.SLICE_S * 1e6)
        return lat, done, len(slice_latencies) * summary.SLICE_S

    def test_pools_the_fastest_slices(self):
        # 40 slow slices and 20 fast ones, interleaved: a twentieth of the
        # slices (3), all fast, already hold 3000 samples.
        lat, done, span = self.phase([200.0, 200.0, 100.0] * 20, 1000)
        pooled_s, pool = summary.quiet_pool(lat, done, span)
        self.assertAlmostEqual(pooled_s, 3 * summary.SLICE_S)
        self.assertEqual(pool, [100.0] * 3000)

    def test_takes_more_slices_until_the_p99_has_its_samples(self):
        # 40 samples per slice: the p99 rule needs 23 slices (920 samples),
        # more than the 5% share of 100 slices; the pool then reaches into
        # the slow slices.
        lat, done, span = self.phase([100.0] * 20 + [300.0] * 80, 40)
        pooled_s, pool = summary.quiet_pool(lat, done, span)
        self.assertAlmostEqual(pooled_s, 23 * summary.SLICE_S)
        self.assertEqual(len(pool), 920)
        self.assertEqual(pool.count(300.0), 120)
        self.assertEqual(summary.samples_beyond(len(pool), 0.99), summary.MIN_BEYOND)

    def test_empty_slices_rank_last(self):
        lat, done, span = self.phase([50.0] * 20, 100)
        span *= 2  # a second, empty half: an idle stretch never looks quiet
        pooled_s, pool = summary.quiet_pool(lat, done, span)
        self.assertAlmostEqual(pooled_s, 10 * summary.SLICE_S)
        self.assertEqual(len(pool), 1000)

    def test_too_short_a_phase(self):
        lat, done, span = self.phase([100.0] * 10, 50)
        with self.assertRaises(summary.NotEnoughSamples):
            summary.quiet_pool(lat, done, span)

    def test_end_to_end_reads_the_cpu_timeline(self):
        lat, done, span = self.phase([200.0, 100.0] * 10, 1000)
        raw = {"peak_rss_mb": 12.5, "setup_s": [0.004 - i * 1e-4 for i in range(21)],
               "phases": {"untraced": {"latency_us": lat, "cpu_done_us": done, "cpu_s": span}}}
        m = summary.end_to_end(raw)
        self.assertEqual(m["throughput_rps"], (10000.0, "1/s", 1000))
        self.assertEqual(m["latency_p50_us"], (100.0, "us", 1000))
        self.assertEqual(m["latency_p99_us"], (100.0, "us", 1000))
        # setup_s: the QUIET_SHARE quantile of the set-ups timed in the run.
        self.assertAlmostEqual(m["setup_s"][0], 0.002 + 0.05 * 20 * 1e-4)
        self.assertEqual(m["setup_s"][2], 21)


class MergeParts(unittest.TestCase):
    @staticmethod
    def part(lat, done, cpu_s, setups, rss, check="", failed=0, first_mismatch=""):
        return {"workload": "wl", "config": {"clients": 1}, "setup_s": setups,
                "peak_rss_mb": rss, "check": check,
                "phases": {"untraced": {"latency_us": lat, "cpu_done_us": done, "cpu_s": cpu_s,
                                        "attempted": len(lat) + failed, "completed": len(lat),
                                        "failed": failed, "mismatches": 1 if first_mismatch else 0,
                                        "first_mismatch": first_mismatch}}}

    def test_parts_follow_each_other_on_one_cpu_timeline(self):
        raw = summary.merge_parts([
            self.part([10.0, 20.0], [5.0, 900.0], 0.001, [0.5], 12.0),
            self.part([30.0], [400.0], 0.002, [0.25, 0.75], 14.0, check="skew; ", failed=2,
                      first_mismatch="element 3"),
        ])
        ph = raw["phases"]["untraced"]
        self.assertEqual(ph["latency_us"], [10.0, 20.0, 30.0])
        self.assertEqual(ph["cpu_done_us"], [5.0, 900.0, 1400.0])
        self.assertAlmostEqual(ph["cpu_s"], 0.003)
        self.assertEqual((ph["attempted"], ph["completed"], ph["failed"], ph["mismatches"]),
                         (5, 3, 2, 1))
        self.assertEqual(ph["first_mismatch"], "element 3")
        self.assertEqual(raw["setup_s"], [0.5, 0.25, 0.75])
        self.assertEqual(raw["peak_rss_mb"], 14.0)
        self.assertEqual(raw["check"], "skew")
        self.assertEqual(raw["config"], {"clients": 1})


class SelfTime(unittest.TestCase):
    def test_no_children_is_the_whole_span(self):
        self.assertEqual(summary.self_times([(0, 10), (20, 25)], []), [10, 5])

    def test_nested_children_count_once(self):
        # child (2, 8) holds a grandchild (3, 5): the union is 6 long.
        self.assertEqual(summary.self_times([(0, 10)], [(2, 8), (3, 5)]), [4])

    def test_overlapping_children_count_their_union(self):
        # Two lanes busy at once: (1, 6) and (4, 9) cover 8, not 10.
        self.assertEqual(summary.self_times([(0, 10)], [(1, 6), (4, 9)]), [2])

    def test_children_clipped_to_the_parent(self):
        self.assertEqual(summary.self_times([(5, 10)], [(0, 7), (9, 20)]), [2])

    def test_cross_thread_children_fold_by_time(self):
        # A parent on the caller's thread, children recorded on an engine
        # track (another tid): loaded as spans, they fold by time alone.
        trace = summary.Trace()
        trace.add_chunk({"traceEvents": [
            {"ph": "M", "name": "thread_name", "tid": 2, "args": {"name": "thread 2"}},
            {"ph": "M", "name": "thread_name", "tid": 1000, "args": {"name": "engine 0"}},
            {"ph": "X", "name": "bench.forward", "tid": 2, "ts": 100.0, "dur": 50.0},
            {"ph": "X", "name": "engine.run_forward", "tid": 1000, "ts": 110.0, "dur": 10.0},
            {"ph": "X", "name": "engine.run_forward", "tid": 1000, "ts": 125.0, "dur": 20.0},
            {"ph": "X", "name": "engine.run_forward", "tid": 1000, "ts": 400.0, "dur": 20.0},
        ]})
        got = summary.self_times(trace.intervals("bench.forward"),
                                 trace.intervals("engine.run_forward"))
        self.assertEqual(got, [20.0])
        self.assertEqual(trace.track_names[1000], "engine 0")

    def test_each_parent_folds_its_own_window(self):
        parents = [(0, 10), (10, 20), (30, 40)]
        children = [(2, 4), (8, 12), (35, 50)]
        self.assertEqual(summary.self_times(parents, children), [6, 8, 5])


class MacroInstants(unittest.TestCase):
    def test_counts_only_programs_inside_whole_spans(self):
        trace = summary.Trace()
        trace.add_chunk({"traceEvents": [
            {"ph": "i", "name": "macro.program", "tid": 3, "ts": 5.0, "args": {"instructions": 7}},
            {"ph": "i", "name": "macro.program", "tid": 4, "ts": 12.0, "args": {"instructions": 2}},
            {"ph": "i", "name": "macro.program", "tid": 3, "ts": 30.0, "args": {"instructions": 100}},
        ]})
        self.assertEqual(trace.instructions_within([(0.0, 10.0), (11.0, 20.0)]), 9)


class Windows(unittest.TestCase):
    def test_counts_points_inside_trace_windows(self):
        windows = summary.pairs([0.0, 10.0, 20.0, 30.0])
        self.assertEqual(windows, [(0.0, 10.0), (20.0, 30.0)])
        self.assertEqual(summary.count_within([-1, 0, 5, 15, 25, 30, 31], windows), 4)


def results(values):
    """seed -> value, seeds 0..n-1."""
    return dict(enumerate(values))


class CompareVerdicts(unittest.TestCase):
    BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]

    def test_same_within_bound(self):
        change = [v * 1.02 for v in self.BASE]
        self.assertEqual(compare.verdict(results(self.BASE), results(change), "lower", 0.10), "same")

    def test_regress_beyond_bound(self):
        change = [v * 1.2 for v in self.BASE]
        self.assertEqual(compare.verdict(results(self.BASE), results(change), "lower", 0.10),
                         "regress")
        # The same move is a win for a higher-is-better metric.
        self.assertEqual(compare.verdict(results(self.BASE), results(change), "higher", 0.10),
                         "win")

    def test_win_needs_nine_tenths_of_pairs(self):
        change = [v * 0.9 for v in self.BASE]
        self.assertEqual(compare.verdict(results(self.BASE), results(change), "lower", 0.10), "win")
        mixed = change[:8] + [v * 1.05 for v in self.BASE[8:]]
        self.assertEqual(compare.verdict(results(self.BASE), results(mixed), "lower", 0.10), "same")

    def test_unresolved_when_spread_exceeds_bound(self):
        noisy = [100.0, 150.0, 60.0, 130.0, 80.0, 140.0, 70.0, 120.0, 90.0, 110.0]
        change = [v * 1.05 for v in noisy]
        self.assertEqual(compare.verdict(results(noisy), results(change), "lower", 0.10),
                         "unresolved")

    def test_noisy_but_every_run_better_is_a_win(self):
        noisy = [100.0, 150.0, 120.0, 130.0, 140.0]
        change = [50.0, 60.0, 55.0, 58.0, 52.0]
        self.assertEqual(compare.verdict(results(noisy), results(change), "lower", 0.10), "win")

    def test_per_layer_metrics_are_info(self):
        self.assertEqual(compare.verdict({1: 1.0}, {1: 2.0}, "lower", None), "info")

    def test_compare_reads_result_trees(self):
        with tempfile.TemporaryDirectory() as d:
            for side, scale in (("base", 1.0), ("change", 1.5)):
                for seed, v in enumerate(self.BASE):
                    os.makedirs(os.path.join(d, side, "wl"), exist_ok=True)
                    with open(os.path.join(d, side, "wl", f"seed-{seed}.trace-0.json"), "w") as f:
                        json.dump({"workload": "wl", "seed": seed, "metrics": {
                            "latency_p50_us": {"value": v * scale, "unit": "us"},
                            "app.forward_us": {"value": v, "unit": "us"}}}, f)
            rows = compare.compare(compare.load([os.path.join(d, "base")]),
                                   compare.load([os.path.join(d, "change")]))
            self.assertEqual([(r[0], r[1], r[-1]) for r in rows],
                             [("wl", "latency_p50_us", "regress")])
            rows = compare.compare(compare.load([os.path.join(d, "base")]),
                                   compare.load([os.path.join(d, "change")]), True)
            self.assertEqual(len(rows), 2)


class Catalogue(unittest.TestCase):
    def test_benchmark_json_matches_the_catalogue(self):
        path = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")
        with open(path) as f:
            self.assertEqual(json.load(f), summary.benchmark_json())

    def test_end_to_end_bounds_at_most_a_quarter(self):
        setup = [m for m in summary.END_TO_END if m[0] == "setup_s"]
        self.assertEqual(setup, [("setup_s", "s", "lower", max(m[3] for m in summary.END_TO_END))])
        for _, _, _, bound in summary.END_TO_END:
            self.assertLessEqual(bound, 0.25)


if __name__ == "__main__":
    unittest.main()
