"""Tests of the benchmark's own logic on synthetic inputs.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import statistics
import subprocess
import unittest
from pathlib import Path

import compare
import metrics

ROOT = Path(__file__).resolve().parent.parent


def raw_run(fitness_histories, times, instances, passes=1, **overrides):
    """Synthetic untraced-run record: one solve per (pass, instance)."""
    solves = []
    for _ in range(passes):
        for i in range(instances):
            s = {"ok": True, "error": "", "status": "ok", "csf_build_s": 0.0,
                 "wall_s": times[i][-1] + 0.5, "rss_mb": 100.0 + i,
                 "t": list(times[i]),
                 "fitness": list(fitness_histories[i]), "phase": "a" * len(times[i]),
                 "final_fitness": fitness_histories[i][-1],
                 "sweeps": len(times[i]), "als": len(times[i]), "pp_init": 0,
                 "pp_approx": 0, "msgs": 0.0, "words": 0.0}
            solves.append(s)
    raw = {"instances": instances, "target": 0.9, "fitness_floor": 0.9,
           "solves": solves}
    raw.update(overrides)
    return raw


class Statistics(unittest.TestCase):
    def test_median_and_quartiles_match_statistics_module(self):
        xs = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        self.assertEqual(metrics.median(xs), 4.0)
        self.assertEqual(metrics.quartiles(xs),
                         tuple(statistics.quantiles(xs, n=4)))
        q1, _, q3 = statistics.quantiles(xs, n=4)
        self.assertAlmostEqual(metrics.iqr_ratio(xs), (q3 - q1) / 4.0)

    def test_nearest_rank_percentile(self):
        xs = list(range(1, 101))
        self.assertEqual(metrics.percentile(xs, 50), 50)
        self.assertEqual(metrics.percentile(xs, 90), 90)
        self.assertEqual(metrics.percentile([3.0], 90), 3.0)

    def test_percentile_needs_ten_samples_beyond(self):
        self.assertTrue(metrics.percentile_supported(100, 90))
        self.assertFalse(metrics.percentile_supported(99, 90))
        self.assertTrue(metrics.percentile_supported(21, 50))
        self.assertFalse(metrics.percentile_supported(20, 50))

    def test_layer_sum_closure(self):
        self.assertEqual(metrics.closure_problems([1.0, 2.0], 3.5), [])
        # Over-attribution within the replay-noise tolerance passes ...
        self.assertEqual(metrics.closure_problems([1.0, 2.5], 3.4), [])
        # ... beyond it, or with most of the sweep unexplained, it fails.
        self.assertIn("exceed", metrics.closure_problems([1.0, 4.0], 3.5)[0])
        self.assertIn("unattributed", metrics.closure_problems([0.5], 3.5)[0])


class EndToEnd(unittest.TestCase):
    def setUp(self):
        self.fit = [[0.5, 0.95, 0.97], [0.8, 0.85, 0.92]]
        self.times = [[0.1, 0.2, 0.3], [0.1, 0.3, 0.4]]

    def test_metrics_of_a_clean_run(self):
        raw = raw_run(self.fit, self.times, instances=2, passes=2)
        m, attempted, failed, problems = metrics.end_to_end(raw)
        self.assertEqual((attempted, failed), (4, 0))
        self.assertEqual(m["sweeps_to_target"], 2.5)  # mean of 2 and 3
        self.assertAlmostEqual(m["setup_s"], 0.5)
        self.assertAlmostEqual(m["time_to_target_s"], ((0.5 + 0.2) + (0.5 + 0.4)) / 2)
        self.assertEqual(m["ok_rate"], 1.0)
        self.assertEqual(m["sweep_samples"], 6)
        self.assertEqual(m["peak_rss_mb"], 101.0)  # largest solve's own peak
        # Six pooled sweeps cannot support a p90 with ten samples beyond it.
        self.assertTrue(any("p90" in p for p in problems))

    def test_best_repeat_is_the_noise_floor(self):
        raw = raw_run(self.fit, self.times, instances=2, passes=2)
        slow = raw["solves"][2]  # second repeat of instance 0, 2x slower
        slow["t"] = [2 * x for x in slow["t"]]
        slow["wall_s"] = slow["t"][-1] + 0.5
        m, _, _, _ = metrics.end_to_end(raw)
        self.assertAlmostEqual(m["sweep_ms_p50"], 100.0)

    def test_failures_count_but_the_run_still_reports(self):
        raw = raw_run(self.fit, self.times, instances=2, passes=2)
        raw["solves"][3]["status"] = "comm-abort"
        raw["solves"][2]["msgs"] = 1.0  # repeat disagrees with first pass
        m, attempted, failed, problems = metrics.end_to_end(raw)
        self.assertEqual((attempted, failed), (4, 2))
        self.assertEqual(m["ok_rate"], 0.5)
        self.assertGreater(m["time_to_target_s"], 0.0)
        self.assertIn("status comm-abort", problems)

    def test_target_and_floor_are_checked(self):
        raw = raw_run(self.fit, self.times, instances=2, target=0.96,
                      fitness_floor=0.9)
        fails = metrics.solve_failures(raw)
        self.assertEqual(fails[0], "")
        self.assertIn("target", fails[1])


class PerLayer(unittest.TestCase):
    def raw(self, **kw):
        layers = {k: 0.0 for k in (
            "mttkrp_s", "csf_mttkrp_s", "pp_build_s", "pp_approx_s", "gram_s",
            "update_s", "normalize_s", "fitness_s", "transfer_s", "verify_s",
            "ttm_per_sweep", "mttv_per_sweep", "pp_build_ttms",
            "pp_operator_mb", "mttkrp_flops", "pp_approx_flops",
            "mttkrp_bytes", "csf_bytes")}
        # 8e7 flops over 1e7 bytes: bandwidth allows 10 GB/s x 8 = 80 GFLOP/s,
        # so the GEMM rate (20 GFLOP/s) is the roofline.
        layers.update(mttkrp_s=0.008, gram_s=0.001, update_s=0.0005,
                      mttkrp_flops=8e7, mttkrp_bytes=1e7)
        raw = {"layers": layers,
               "machine": {"gemm_gflops": 20.0, "stream_gbs": 10.0,
                           "stream_mib": 448.0, "l3_mib": 105.0,
                           "alpha_s": 2e-5, "beta_s": 1e-9},
               "sweeps": 10, "als": 10, "msgs": 0.0, "words": 0.0,
               "sweep_s": 0.010, "traced_sweep_s": 0.0101, "comm_s": 0.0,
               "csf_build_s": 0.0, "replay_fitness_diff": 0.0,
               "nnz_imbalance": 0.0, "partition_s": 0.0, "distribute_s": 0.0,
               "partition_passes": 0.0, "spans": 42}
        raw.update(kw)
        return raw

    def test_layers_and_remainder_add_up_to_the_sweep(self):
        m, problems = metrics.per_layer(self.raw())
        self.assertEqual(problems, [])
        self.assertAlmostEqual(m["solver.unattributed_ms"], 0.5)
        self.assertAlmostEqual(m["core.mttkrp_gflops"], 10.0)
        self.assertAlmostEqual(m["core.mttkrp_roofline_pct"], 50.0)
        self.assertAlmostEqual(m["trace.overhead_pct"], 1.0)
        self.assertEqual(set(m), set(metrics.PER_LAYER_UNITS))

    def test_roofline_is_bandwidth_bound_at_low_intensity(self):
        raw = self.raw()
        raw["layers"]["mttkrp_bytes"] = 8e7  # 1 flop per byte -> 10 GFLOP/s
        m, _ = metrics.per_layer(raw)
        self.assertAlmostEqual(m["core.mttkrp_roofline_pct"], 100.0)

    def test_layers_beyond_the_sweep_fail_closure(self):
        raw = self.raw()
        raw["layers"]["mttkrp_s"] = 0.0115  # layers 13 ms against a 10 ms sweep
        m, problems = metrics.per_layer(raw)
        self.assertAlmostEqual(m["solver.unattributed_ms"], -3.0)
        self.assertTrue(any("exceed" in p for p in problems))

    def test_mostly_unattributed_sweep_fails_closure(self):
        raw = self.raw()
        raw["layers"]["mttkrp_s"] = 0.0005  # 2 of 10 ms attributed
        _, problems = metrics.per_layer(raw)
        self.assertTrue(any("unattributed" in p for p in problems))

    def test_replay_mismatch_is_a_failure(self):
        _, problems = metrics.per_layer(self.raw(replay_fitness_diff=1e-9))
        self.assertTrue(any("replay" in p for p in problems))


class Verdicts(unittest.TestCase):
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]

    def test_gain_needs_nine_of_ten_wins_and_a_gap_beyond_the_iqr(self):
        faster = [x - 1.0 for x in self.base]
        self.assertEqual(compare.verdict(self.base, faster, "lower", 0.1), "gain")
        mixed = list(faster)
        mixed[0] = mixed[1] = 20.0  # two lost pairs
        self.assertEqual(compare.verdict(self.base, mixed, "lower", 0.5), "same")

    def test_regression_beyond_the_bound(self):
        slower = [x * 1.2 for x in self.base]
        self.assertEqual(compare.verdict(self.base, slower, "lower", 0.1),
                         "regression")
        self.assertEqual(compare.verdict(self.base, slower, "higher", 0.1), "gain")

    def test_unresolved_when_the_spread_exceeds_the_bound(self):
        noisy = [1.0, 20.0] * 5
        self.assertEqual(compare.verdict(noisy, self.base, "lower", 0.25),
                         "unresolved")

    def test_every_change_run_beating_every_parent_run_resolves(self):
        noisy = [10.0, 14.0] * 5
        faster = [x - 5.0 for x in noisy]   # 5..9: below every parent run
        self.assertEqual(compare.verdict(noisy, faster, "lower", 0.1), "gain")
        overlap = [x - 1.0 for x in noisy]  # 9..13 overlaps the parent
        self.assertEqual(compare.verdict(noisy, overlap, "lower", 0.1),
                         "unresolved")

    def test_no_gain_when_more_solves_fail(self):
        faster = [x - 1.0 for x in self.base]
        self.assertEqual(compare.verdict(self.base, faster, "lower", 0.1,
                                         parent_failed=0, change_failed=1),
                         "same")
        self.assertEqual(compare.verdict(self.base, faster, "lower", 0.1,
                                         parent_failed=2, change_failed=2),
                         "gain")

    def test_pairs_alternate_which_side_runs_first(self):
        self.assertEqual(compare.pair_order(0), ["parent", "change"])
        self.assertEqual(compare.pair_order(1), ["change", "parent"])
        firsts = [compare.pair_order(i)[0] for i in range(compare.MIN_PAIRS)]
        self.assertEqual(firsts.count("parent"), firsts.count("change"))

    def test_two_sessions_agree_within_the_bound(self):
        bench = {"end_to_end": [
            {"name": "t", "better": "lower", "bound": 0.25},
            {"name": "r", "better": "higher", "bound": 0.1}]}
        first = {"summary": {"t": {"median": 10.0}, "r": {"median": 100.0}}}
        second = {"summary": {"t": {"median": 12.0}, "r": {"median": 85.0}}}
        rows = {r[0]: r for r in compare.agreement(first, second, bench)}
        self.assertAlmostEqual(rows["t"][3], 0.2)
        self.assertTrue(rows["t"][5])
        self.assertAlmostEqual(rows["r"][3], 0.15)
        self.assertFalse(rows["r"][5])

    def test_too_few_pairs(self):
        self.assertIn("too few", compare.verdict(self.base[:9], self.base[:9],
                                                 "lower", 0.1))


class Repository(unittest.TestCase):
    def test_benchmark_json_names_every_reported_metric(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
        self.assertEqual(e2e, metrics.END_TO_END_UNITS)
        self.assertEqual(layers, metrics.PER_LAYER_UNITS)
        names = [m["name"] for m in bench["end_to_end"]]
        self.assertIn("setup_s", names)

    def test_result_files_are_not_ignored_by_git(self):
        probe = subprocess.run(["git", "rev-parse", "--git-dir"], cwd=ROOT,
                               capture_output=True)
        if probe.returncode != 0:
            self.skipTest("not a git checkout")
        kept = ["perfbench/baselines/dense-msdt-o4.session1.json",
                "bench/baselines/BENCH_solvers.prepr.json"]
        for path in kept:
            r = subprocess.run(["git", "check-ignore", "-q", path], cwd=ROOT)
            self.assertEqual(r.returncode, 1, path + " is ignored by git")
        r = subprocess.run(["git", "check-ignore", "-q", ".bench_build/x"],
                           cwd=ROOT)
        self.assertEqual(r.returncode, 0, "the build tree must stay ignored")


if __name__ == "__main__":
    unittest.main()
