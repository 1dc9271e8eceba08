#!/usr/bin/env python3
"""Tests of the benchmark's own logic: percentiles and the tail report,
schedule determinism, the ladder's sustained-rate decision, the compare
verdict rule, fingerprint matching and the metric names run.py emits.

    python3 perfbench/test_stats.py
"""

import json
import math
import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402

INF = math.inf


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        v = list(range(10, 0, -1))  # unsorted on purpose
        self.assertEqual(stats.percentile(v, 50), 5)
        self.assertEqual(stats.percentile(v, 90), 9)
        self.assertEqual(stats.percentile(v, 100), 10)
        self.assertEqual(stats.percentile(v, 0), 1)
        self.assertEqual(stats.percentile([7.5], 99), 7.5)

    def test_values_are_samples_not_bucket_edges(self):
        v = [1.1, 2.3, 2.9, 3.7]
        for q in (25, 50, 75, 100):
            self.assertIn(stats.percentile(v, q), v)

    def test_failures_rank_last_and_miss(self):
        v = stats.latencies([1.0, -1, 2.0, None])
        self.assertEqual(v.count(INF), 2)
        self.assertEqual(stats.percentile(v, 50), 2.0)
        self.assertEqual(stats.percentile(v, 75), INF)

    def test_empty_is_inf(self):
        self.assertEqual(stats.percentile([], 50), INF)


class TailTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(stats.tail(list(range(10000)))[0], 99.9)
        self.assertEqual(stats.tail(list(range(1000)))[0], 99.0)
        self.assertEqual(stats.tail(list(range(999)))[0], 95.0)
        self.assertEqual(stats.tail(list(range(100)))[0], 90.0)
        self.assertEqual(stats.tail(list(range(20)))[0], 50.0)

    def test_reports_value_and_count(self):
        q, value, beyond = stats.tail([float(i) for i in range(1, 1001)])
        self.assertEqual((q, value, beyond), (99.0, 990.0, 10))

    def test_too_few_samples(self):
        self.assertIsNone(stats.tail(list(range(19))))


class ScheduleTest(unittest.TestCase):
    def test_same_seed_same_schedule(self):
        a = stats.poisson_schedule(5000, 0.5, 7, "nominal0")
        b = stats.poisson_schedule(5000, 0.5, 7, "nominal0")
        self.assertEqual(a, b)

    def test_other_seed_or_phase_differs(self):
        a = stats.poisson_schedule(5000, 0.5, 7, "nominal0")
        self.assertNotEqual(a, stats.poisson_schedule(5000, 0.5, 8, "nominal0"))
        self.assertNotEqual(a, stats.poisson_schedule(5000, 0.5, 7, "ladder1"))

    def test_shape(self):
        rate, secs = 20000, 1.0
        s = stats.poisson_schedule(rate, secs, 3, "x")
        offsets = [t for t, _ in s]
        self.assertEqual(offsets, sorted(offsets))
        self.assertTrue(all(0 < t < secs * 1e9 for t in offsets))
        self.assertTrue(all(0 <= u < 1 for _, u in s))
        # Poisson count: mean rate*secs, sd sqrt(rate*secs).
        self.assertLess(abs(len(s) - rate * secs), 5 * math.sqrt(rate * secs))

    def test_driver_schedule_is_deterministic(self):
        a = run.schedule_text("serve_mixed", 11, 1.0)
        self.assertEqual(a, run.schedule_text("serve_mixed", 11, 1.0))
        self.assertNotEqual(a, run.schedule_text("serve_mixed", 12, 1.0))
        phases = [l.split()[1] for l in a.splitlines() if l.startswith("phase")]
        self.assertEqual(phases, ["nominal"] + ["ladder"] * len(
            run.SERVE_LADDER_RPS))


def rung(p99_ms, n=1200, refused=0):
    """Latencies whose nearest-rank p99 is p99_ms in each third of the rung
    (plus refusals)."""
    lat = [p99_ms if i % 50 == 49 else p99_ms * 0.5 for i in range(n)]
    return lat + [-1] * refused


class SustainedTest(unittest.TestCase):
    LIMIT = 10.0

    def test_all_rungs_pass(self):
        steps = [(100, rung(2)), (200, rung(3)), (400, rung(9))]
        self.assertEqual(stats.sustained_rps(steps, self.LIMIT), 400)

    def test_interpolates_toward_the_failing_rung(self):
        steps = [(100, rung(2)), (200, rung(5)), (400, rung(40))]
        got = stats.sustained_rps(steps, self.LIMIT)
        f = math.log(10 / 5) / math.log(40 / 5)
        self.assertAlmostEqual(got, 200 * 2 ** f)
        self.assertTrue(200 < got < 400)

    def test_refusal_fails_a_rung_and_counts_as_a_miss(self):
        steps = [(100, rung(2)), (200, rung(5)), (400, rung(3, refused=1))]
        got = stats.sustained_rps(steps, self.LIMIT)
        cap = self.LIMIT * 10
        f = math.log(10 / 5) / math.log(cap / 5)
        self.assertAlmostEqual(got, 200 * 2 ** f)

    def test_a_lower_rung_glitch_does_not_cap_the_answer(self):
        steps = [(100, rung(50)), (200, rung(5)), (400, rung(40))]
        self.assertGreater(stats.sustained_rps(steps, self.LIMIT), 200)

    def test_more_headroom_means_higher_rate(self):
        tight = [(100, rung(9)), (200, rung(40))]
        loose = [(100, rung(3)), (200, rung(40))]
        self.assertGreater(stats.sustained_rps(loose, self.LIMIT),
                           stats.sustained_rps(tight, self.LIMIT))

    def test_one_stall_does_not_fail_a_rung(self):
        stalled = rung(2)
        stalled[100:130] = [50.0] * 30  # all within the first third
        self.assertEqual(stats.rung_p99(stalled, self.LIMIT, 10), 2)
        steps = [(100, rung(2)), (200, stalled), (400, rung(3))]
        self.assertEqual(stats.sustained_rps(steps, self.LIMIT), 400)

    def test_growing_backlog_fails_a_rung(self):
        n = 1200
        backlog = [2 + 40.0 * i / n for i in range(n)]  # 2 ms -> 42 ms
        self.assertGreater(stats.rung_p99(backlog, self.LIMIT, 10), self.LIMIT)

    def test_nothing_passes(self):
        steps = [(100, rung(20)), (200, rung(80))]
        self.assertAlmostEqual(stats.sustained_rps(steps, self.LIMIT), 50)
        self.assertEqual(stats.sustained_rps([], self.LIMIT), 0.0)


class VerdictTest(unittest.TestCase):
    BASE = [100, 101, 99, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]

    def test_same_runs_unchanged(self):
        self.assertEqual(stats.verdict(self.BASE, list(self.BASE), "lower",
                                       0.1), "unchanged")

    def test_small_drift_within_bound_unchanged(self):
        change = [v * 1.03 for v in self.BASE]
        self.assertEqual(stats.verdict(self.BASE, change, "lower", 0.1),
                         "unchanged")

    def test_improved_needs_nine_in_ten_wins(self):
        faster = [v * 0.8 for v in self.BASE]
        self.assertEqual(stats.verdict(self.BASE, faster, "lower", 0.1),
                         "improved")
        higher = [v * 1.2 for v in self.BASE]
        self.assertEqual(stats.verdict(self.BASE, higher, "higher", 0.1),
                         "improved")
        # Two losing pairs out of ten: not a gain.
        mixed = faster[:8] + [v * 1.01 for v in self.BASE[8:]]
        self.assertNotEqual(stats.verdict(self.BASE, mixed, "lower", 0.1),
                            "improved")

    def test_regressed_beyond_bound(self):
        slower = [v * 1.2 for v in self.BASE]
        self.assertEqual(stats.verdict(self.BASE, slower, "lower", 0.1),
                         "regressed")
        lower = [v * 0.8 for v in self.BASE]
        self.assertEqual(stats.verdict(self.BASE, lower, "higher", 0.1),
                         "regressed")

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
        self.assertEqual(stats.verdict(noisy, list(noisy), "lower", 0.1),
                         "unresolved")

    def test_rel_spread(self):
        self.assertAlmostEqual(stats.rel_spread([1, 1, 1, 1]), 0.0)
        q1, med, q3 = stats.quartiles(self.BASE)
        self.assertAlmostEqual(stats.rel_spread(self.BASE), (q3 - q1) / med)


class FingerprintTest(unittest.TestCase):
    FP = {"nproc": 4, "cpu": "X", "simd": "sse2", "simd_bits": 128,
          "build_flags": "-O3", "compiler": "GNU 12", "peak_gflops": 70.0}

    def runs(self, **over):
        return [{"fingerprint": dict(self.FP, **over)},
                {"fingerprint": dict(self.FP, **over)}]

    def test_same_host(self):
        self.assertIsNone(compare.fingerprint_mismatch(
            self.runs(), self.runs(peak_gflops=66.0)))
        # One slow peak reading in a set does not split the host.
        noisy = self.runs() + [{"fingerprint": dict(self.FP, peak_gflops=40.0)}]
        self.assertIsNone(compare.fingerprint_mismatch(self.runs(), noisy))

    def test_different_host_refused(self):
        self.assertIn("nproc", compare.fingerprint_mismatch(
            self.runs(), self.runs(nproc=1)))
        self.assertIn("peak_gflops", compare.fingerprint_mismatch(
            self.runs(), self.runs(peak_gflops=30.0)))


class MetricNamesTest(unittest.TestCase):
    def test_every_end_to_end_metric_is_computed(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        raw = {"setup_s": [0.1, 0.2, 0.3], "peak_rss_mb": 10.0,
               "flops": 1e9, "timed_s": 1.0, "ops": 10,
               "pass_ms": [1.0], "first_ms": [1.0], "later_ms": [1.0],
               "op_ms": [1.0], "ladder": []}
        got = run.end_to_end(raw)
        self.assertEqual(set(got), {m["name"] for m in spec["end_to_end"]})
        self.assertEqual(got["setup_s"], 0.2)
        self.assertEqual(got["gflops"], 1.0)
        self.assertEqual(got["sustained_rps"], 10.0)


if __name__ == "__main__":
    unittest.main()
