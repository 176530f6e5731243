"""Tests of the benchmark's own code: statistics, accounting, inputs, names.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True

import inputs  # noqa: E402
import report  # noqa: E402
import stats  # noqa: E402

HERE = Path(__file__).resolve().parent


class TailRule(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        values = list(range(1, 201))  # 200 samples: p95 leaves exactly 10 beyond
        self.assertEqual(stats.tail(values), (95.0, 190, 200, 10))

    def test_steps_down_when_too_few_beyond(self):
        values = list(range(1, 200))  # 199: p95 leaves 9, so p75 (49 beyond)
        pct, value, n, beyond = stats.tail(values)
        self.assertEqual((pct, n), (75.0, 199))
        self.assertEqual(beyond, 49)
        self.assertEqual(value, 150)
        self.assertGreaterEqual(sum(1 for v in values if v > value), stats.MIN_BEYOND)

    def test_small_runs_fall_to_the_median_then_fail(self):
        self.assertEqual(stats.tail(list(range(20)))[0], 50.0)
        with self.assertRaises(ValueError):
            stats.tail(list(range(19)))

    def test_order_does_not_matter(self):
        values = [5.0, 1.0, 9.0, 3.0] * 60
        self.assertEqual(stats.tail(values), stats.tail(sorted(values)))

    def test_nearest_rank_percentile(self):
        self.assertEqual(stats.percentile([3, 1, 2, 4], 50), 2)
        self.assertEqual(stats.percentile([3, 1, 2, 4], 75), 3)
        self.assertEqual(stats.percentile([7], 95), 7)


class MedianAndQuartiles(unittest.TestCase):
    def test_median(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            stats.median([])

    def test_quartiles_match_the_acceptance_rule(self):
        self.assertEqual(stats.quartiles([1, 2, 3, 4, 5, 6, 7, 8]), (2.25, 4.5, 6.75))
        self.assertAlmostEqual(stats.spread([1, 2, 3, 4, 5, 6, 7, 8]), 4.5 / 4.5)
        self.assertEqual(stats.spread([2.0] * 10), 0.0)


class SelfTime(unittest.TestCase):
    def test_union_of_intervals(self):
        self.assertEqual(stats.covered([(0, 2), (1, 3), (5, 6)]), 4)
        self.assertEqual(stats.covered([(0, 10), (2, 3)]), 10)
        self.assertEqual(stats.covered([]), 0)

    def test_overlapping_children_on_other_threads_count_once(self):
        spans = [
            {"id": 1, "parent": 0, "begin": 0.0, "end": 10.0},
            {"id": 2, "parent": 1, "begin": 1.0, "end": 5.0},  # rank 0
            {"id": 3, "parent": 1, "begin": 2.0, "end": 6.0},  # rank 1, overlaps rank 0
            {"id": 4, "parent": 3, "begin": 2.0, "end": 3.0},
            {"id": 5, "parent": 1, "begin": 9.0, "end": 12.0},  # clipped to the parent
        ]
        self_s = stats.self_times(spans)
        self.assertAlmostEqual(self_s[1], 10.0 - 5.0 - 1.0)
        self.assertAlmostEqual(self_s[3], 3.0)
        self.assertAlmostEqual(self_s[4], 1.0)


def batch(steps=10, failed=None, crc="aa", error="", tenants=(), ckpt=(0, 0)):
    # Like the driver: a batch that threw fails all its steps.
    if failed is None:
        failed = steps if error else 0
    return {"steps_attempted": steps, "steps_failed": failed, "sim_s": 1440.0 * steps,
            "wall_s": 0.01 * steps, "step_ms": [10.0] * (steps if not error else 0),
            "crc": crc, "error": error, "diag": {}, "tenants": list(tenants),
            "ckpt_checked": ckpt[0], "ckpt_failed": ckpt[1], "ckpt_generation_bytes": []}


def raw(untraced, traced):
    return {"untraced": untraced, "traced": traced, "setup_s": [0.01, 0.02, 0.03],
            "peak_rss_mb": 30.0}


class ErrorAccounting(unittest.TestCase):
    def test_clean_run(self):
        attempted, failed, problems = report.operations(raw([batch(), batch()], [batch()]))
        self.assertEqual((attempted, failed, problems), (32, 0, []))

    def test_failed_batch_counts_as_failures_not_missing_samples(self):
        r = raw([batch(30), batch(30, error="CommError: rank 2 died", crc="0")], [batch(30)])
        attempted, failed, problems = report.operations(r)
        self.assertEqual(attempted, 92)  # its 30 steps and its CRC comparison stay attempted
        self.assertEqual(failed, 31)
        metrics = report.end_to_end(r)[0]
        self.assertAlmostEqual(metrics["ok_rate"], 1 - 31 / 92)

    def test_unhealthy_state_fails_the_batch_steps(self):
        attempted, failed, problems = report.operations(raw([batch(), batch(failed=10)], [batch()]))
        self.assertEqual((attempted, failed), (32, 10))
        self.assertEqual(len(problems), 1)

    def test_traced_crc_mismatch_is_a_failure(self):
        attempted, failed, problems = report.operations(raw([batch()], [batch(crc="bb")]))
        self.assertEqual((attempted, failed), (21, 1))
        self.assertIn("differs", problems[0])

    def test_refused_tenant_and_bad_checkpoint(self):
        refused = {"name": "m1", "state": "failed", "final_crcs": 0, "error": "gave up"}
        r = raw([batch(steps=16, failed=16, tenants=[refused], ckpt=(3, 1))], [batch(steps=16)])
        attempted, failed, problems = report.operations(r)
        self.assertEqual(attempted, 16 + 3 + 16 + 1)
        self.assertEqual(failed, 16 + 1)
        self.assertEqual(len(problems), 3)


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in inputs.WORKLOADS:
            self.assertEqual(inputs.inputs(w, 7), inputs.inputs(w, 7))
            self.assertEqual(inputs.driver_args(w, 7, 10, 5, "c"), inputs.driver_args(w, 7, 10, 5, "c"))
            self.assertNotEqual(inputs.inputs(w, 7), inputs.inputs(w, 8))

    def test_generator_is_splitmix64(self):
        s = inputs.SeedStream("", 0)
        s.state = 0
        self.assertEqual(s.next_u64(), 0xE220A8397B1DCDAF)  # splitmix64 reference output

    def test_pinned_values(self):
        # Guards against silent changes of the generator or of its key.
        self.assertEqual(inputs.SeedStream("ocean-1rank", 0).next_u64(), 7470878345630855284)
        self.assertEqual(inputs.inputs("ensemble-ckpt", 3)["member_wind"],
                         [1.0429, 1.03743, 0.914473, 0.9416])

    def test_perturbations_stay_in_range(self):
        for seed in range(50):
            x = inputs.inputs("ensemble-ckpt", seed)
            self.assertTrue(0.95 <= x["wind_stress_scale"] <= 1.05)
            self.assertTrue(all(0.9 <= v <= 1.1 for v in x["member_wind"]))
            self.assertTrue(all(-0.5 <= v <= 0.5 for v in x["member_sst"]))


class HaloGrouping(unittest.TestCase):
    def test_groups_by_suffix_across_engines_without_double_counting(self):
        paths = [
            {"name": "step", "category": "phase", "total_s": 10.0, "count": 1},
            {"name": "step/barotr", "category": "phase", "total_s": 5.0, "count": 1},
            {"name": "step/barotr/halo_persistent_finish", "category": "halo", "total_s": 2.0, "count": 1},
            {"name": "step/barotr/halo_persistent_finish/halo_finish", "category": "halo",
             "total_s": 1.0, "count": 1},
            {"name": "step/tracer/halo_batch_finish", "category": "halo", "total_s": 1.5, "count": 1},
            {"name": "step/tracer/finish_kernel_finish", "category": "kernel", "total_s": 9.0, "count": 1},
        ]
        tree, _ = report._path_tree(paths)
        self.assertAlmostEqual(report.halo_group_s(tree, "_finish"), 3.5)


class Names(unittest.TestCase):
    def test_metric_names_and_units_match_benchmark_json(self):
        with open(HERE.parent / "BENCHMARK.json") as f:
            spec = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, report.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, report.PER_LAYER)
        listed = [w["name"] for w in spec["workloads"]]
        self.assertEqual(listed, [w for w in inputs.WORKLOADS if w in listed])
        self.assertEqual(set(inputs.WORKLOADS) - set(listed), {"halo-4rank"})


if __name__ == "__main__":
    unittest.main()
