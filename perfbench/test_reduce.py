"""Tests of the benchmark's own arithmetic (perfbench/reduce.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import statistics
import unittest
from pathlib import Path

import reduce

HERE = Path(__file__).resolve().parent


def op(op_id, kind, wall, items=1.0, traced=False, ok=True):
    return {"op": op_id, "kind": kind, "wall_s": wall, "items": items,
            "traced": traced, "ok": ok}


class QuantileTest(unittest.TestCase):
    def test_median_even_odd_and_empty(self):
        self.assertEqual(reduce.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(reduce.median([4.0, 1.0, 2.0, 3.0]), 2.5)
        self.assertEqual(reduce.median([]), 0.0)

    def test_quartiles_match_statistics_exclusive_method(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        self.assertEqual(reduce.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))
        # Exclusive method on 1..10: q1 = 2.75, q3 = 8.25.
        q1, q2, q3 = reduce.quartiles(values)
        self.assertAlmostEqual(q1, 2.75)
        self.assertAlmostEqual(q2, 5.5)
        self.assertAlmostEqual(q3, 8.25)

    def test_spread_is_iqr_over_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        self.assertAlmostEqual(reduce.spread(values), (8.25 - 2.75) / 5.5)
        self.assertEqual(reduce.spread([2.0, 2.0, 2.0]), 0.0)


class SelfTimeTest(unittest.TestCase):
    def test_nested_children_are_subtracted_once(self):
        spans = [
            ["op.step", 0, -1, 0.0, 10.0],
            ["a", 0, 0, 1.0, 4.0],
            ["a.inner", 0, 1, 2.0, 3.0],  # grandchild: only a loses it
            ["b", 0, 0, 5.0, 9.0],
        ]
        self.assertEqual(reduce.self_times(spans), [3.0, 2.0, 1.0, 4.0])

    def test_overlapping_children_count_their_union(self):
        spans = [
            ["root", 0, -1, 0.0, 10.0],
            ["x", 0, 0, 1.0, 5.0],
            ["y", 0, 0, 3.0, 7.0],  # overlaps x on [3, 5]
            ["z", 0, 0, 6.0, 6.5],  # inside y
        ]
        self.assertEqual(reduce.self_times(spans)[0], 10.0 - 6.0)

    def test_children_outside_parent_are_clipped(self):
        self.assertEqual(reduce.covered([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0),
                         3.0)
        self.assertEqual(reduce.covered([], 0.0, 10.0), 0.0)

    def test_layer_samples_sum_per_op_then_list_per_op(self):
        spans = [
            ["serve.simulate_serving", 1, -1, 0.0, 1.0],
            ["serve.simulate_serving", 1, -1, 1.0, 3.0],
            ["serve.simulate_serving", 2, -1, 5.0, 9.0],
        ]
        self.assertEqual(reduce.layer_samples(spans),
                         {"serve.simulate_serving": [3.0, 4.0]})

    def test_unattributed_ratio_base_is_op_span_time(self):
        spans = [
            ["op.step", 0, -1, 0.0, 10.0],
            ["parallel.allreduce", 0, 0, 0.0, 9.0],
            ["op.step", 1, -1, 20.0, 30.0],
            ["parallel.allreduce", 1, 2, 20.0, 27.0],
            ["tensor.fill", 2, -1, 40.0, 90.0],  # probe: not in the base
        ]
        self.assertAlmostEqual(reduce.unattributed_ratio(spans),
                               (1.0 + 3.0) / 20.0)


class OpsTest(unittest.TestCase):
    def test_ops_per_s_is_median_of_group_rates(self):
        ops = [
            op(0, "setup", 100.0),
            op(1, "warmup", 50.0, 8.0),
            op(2, "step", 2.0, 8.0),
            op(3, "step", 4.0, 8.0),
            op(4, "step", 1.0, 8.0),
            op(5, "check", 0.0, 0.0),
            op(6, "step", 0.5, 8.0, traced=True),
        ]
        self.assertEqual(reduce.ops_per_s(ops), 4.0)

    def test_ops_per_ref_s_scales_each_group_by_its_reference(self):
        ops = [op(1, "warmup", 9.0, 8.0), op(2, "step", 2.0, 8.0),
               op(3, "step", 4.0, 8.0), op(4, "step", 4.0, 8.0),
               op(5, "step", 9.0, 8.0, traced=True)]
        ref = 0.01
        # Raw rates 4, 2 and 2 per s. Ops 3 and 4 ran while the reference
        # kernel took twice as long, so each scales to 4.
        refs = {2: ref, 3: 2.0 * ref, 4: 2.0 * ref}
        self.assertEqual(reduce.ops_per_s(ops), 2.0)
        self.assertEqual(reduce.ops_per_ref_s(ops, refs, ref), 4.0)
        # A slower op on an unchanged host stays slower.
        refs = {2: ref, 3: ref, 4: ref}
        self.assertEqual(reduce.ops_per_ref_s(ops, refs, ref), 2.0)

    def test_rungs_sharing_an_op_form_one_group(self):
        ops = [op(7, "rung:x1", 1.0, 100.0), op(7, "rung:x4", 3.0, 400.0),
               op(8, "rung:x1", 1.0, 100.0), op(8, "rung:x4", 1.0, 400.0)]
        # Pass 7: 500 requests / 4 s; pass 8: 500 / 2 s.
        self.assertEqual(reduce.ops_per_s(ops), (125.0 + 250.0) / 2)

    def test_overhead_ratio_base_is_untraced_median(self):
        ops = [op(1, "trace", 2.0), op(2, "trace", 4.0),
               op(3, "trace", 3.3, traced=True),
               op(4, "trace", 3.3, traced=True)]
        self.assertAlmostEqual(reduce.overhead_ratio(ops), 3.3 / 3.0)

    def test_ratio_with_empty_base_is_zero(self):
        self.assertEqual(reduce.ratio(3, 0), 0.0)
        self.assertEqual(reduce.ratio(1, 4), 0.25)


class CapacityTest(unittest.TestCase):
    RUNGS = [
        {"name": "x0.5", "rate": 5.0, "poisson": True, "offered": 100,
         "admitted": 100, "rejected": 0, "batches": 90, "p99_s": 0.2},
        {"name": "x1", "rate": 10.0, "poisson": True, "offered": 200,
         "admitted": 199, "rejected": 1, "batches": 150, "p99_s": 0.25},
        {"name": "x2", "rate": 20.0, "poisson": True, "offered": 400,
         "admitted": 390, "rejected": 10, "batches": 200, "p99_s": 0.3},
        {"name": "burst-x2", "rate": 20.0, "poisson": False, "offered": 300,
         "admitted": 300, "rejected": 0, "batches": 100, "p99_s": 0.3},
    ]

    def test_highest_poisson_rung_within_rejection_and_slo(self):
        # x2 rejects 2.5 % > 1 %; the bursty rung never counts.
        self.assertEqual(reduce.capacity_rps(self.RUNGS, 1.0), 10.0)

    def test_exactly_one_percent_rejected_still_counts(self):
        rungs = [dict(self.RUNGS[2], rejected=4, admitted=396)]
        self.assertEqual(reduce.capacity_rps(rungs, 1.0), 20.0)

    def test_p99_over_slo_disqualifies(self):
        self.assertEqual(reduce.capacity_rps(self.RUNGS, 0.22), 5.0)
        self.assertEqual(reduce.capacity_rps(self.RUNGS, 0.1), 0.0)

    def test_serving_ratios_use_ladder_totals(self):
        record = {"sim": {"sim.serve_slo_s": 1.0}, "rungs": self.RUNGS}
        sim = reduce.sim_values(record)
        self.assertEqual(sim["sim.serve_p99_s"], 0.25)
        self.assertEqual(sim["sim.serve_p99_s.burst-x2"], 0.3)
        self.assertAlmostEqual(sim["sim.serve_admit_ratio"], 989 / 1000)
        self.assertAlmostEqual(sim["sim.serve_mean_batch"], 989 / 540)
        self.assertEqual(reduce.rung_counts(record),
                         {"serve.requests": 1000, "serve.batches": 540})


class ReduceTest(unittest.TestCase):
    REF = reduce.REF_S["sched-trace"]

    def record(self, trace):
        return {
            "workload": "sched-trace", "seed": 1, "trace": trace,
            "setup_s": [0.3, 0.1, 0.2],
            "ops": [op(0, "setup", 0.3), op(1, "warmup", 1.0, 10.0),
                    op(2, "trace", 1.0, 10.0), op(5, "setup", 0.1),
                    op(3, "trace", 2.0, 10.0, ok=False), op(6, "setup", 0.2),
                    op(4, "trace", 1.0, 10.0, traced=True)],
            "host_ref_s": [[0, self.REF], [2, self.REF], [5, 2.0 * self.REF],
                           [3, 2.0 * self.REF], [6, 2.0 * self.REF],
                           [4, self.REF]],
            "spans": [["op.trace", 4, -1, 0.0, 1.0],
                      ["sched.simulate_schedule", 4, 0, 0.0, 0.9]],
            "failures": ["trace: x"],
            "counters": {"peak_rss_kib": 2048.0, "sched.spans": 7.0,
                         "sched.overhead_node_s": 1.0,
                         "sched.busy_node_s": 4.0,
                         "tune.candidates_evaluated": 10.0,
                         "tune.candidates_rejected": 4.0},
            "sim": {"sim.sched_utilization": 0.5},
        }

    def test_end_to_end_and_counts(self):
        r = reduce.reduce(self.record(0))
        self.assertEqual((r["attempted"], r["failed"]), (7, 1))
        e2e = r["end_to_end"]
        self.assertEqual(set(e2e), set(reduce.END_TO_END))
        # Set-ups of 0.3, 0.1 and 0.2 s; the last two ran while the
        # reference kernel took twice as long, so they scale to 0.05, 0.1.
        self.assertEqual(e2e["setup_s"]["value"], 0.1)
        self.assertEqual(e2e["setup_s"]["n"], 3)
        # Op 2: 10 per s at the reference speed; op 3: 5 per s on a host
        # running its reference kernel twice as slow, so 10 scaled.
        self.assertEqual(e2e["ops_per_ref_s"]["value"], 10.0)
        self.assertEqual(e2e["ops_per_ref_s"]["n"], 2)
        self.assertEqual(e2e["peak_rss_mb"]["value"], 2.0)
        self.assertEqual(r["throughput_name"], "sched.sim_jobs_per_s")

    def test_per_layer_covers_every_metric_with_ratio_bases(self):
        r = reduce.reduce(self.record(1))
        layer = r["per_layer"]
        self.assertEqual(list(layer), list(reduce.PER_LAYER))
        self.assertAlmostEqual(layer["sched.simulate_s"]["value"], 0.9)
        self.assertEqual(layer["sched.overhead_ratio"]["value"], 0.25)
        self.assertEqual(layer["tune.accept_ratio"]["value"], 0.6)
        self.assertEqual(layer["tune.accept_ratio"]["n"], 10)
        self.assertEqual(layer["failed_ratio"]["value"], 1 / 7)
        self.assertAlmostEqual(layer["trace.unattributed_ratio"]["value"], 0.1)
        self.assertAlmostEqual(layer["trace.overhead_ratio"]["value"], 1 / 1.5)
        self.assertEqual(layer["sim.sched_utilization"]["value"], 0.5)
        self.assertEqual(layer["host.ops_per_s"]["value"], 7.5)
        self.assertEqual(layer["host.setup_s"]["value"], 0.2)
        self.assertAlmostEqual(layer["host.ref_s"]["value"], 1.5 * self.REF)
        # A layer the workload never calls reads 0 with an empty base.
        self.assertEqual(layer["parallel.allreduce_s"],
                         {"value": 0.0, "unit": "s", "n": 0})


class SimGuardTest(unittest.TestCase):
    def test_first_run_records_and_equal_bits_pass(self):
        bad, changed, ledger = reduce.sim_guard({}, {"sim.a": 0.1})
        self.assertEqual((bad, changed), ([], []))
        self.assertEqual(ledger, {"sim.a": (0.1).hex()})
        self.assertEqual(reduce.sim_guard(ledger, {"sim.a": 0.1})[:2],
                         ([], []))

    def test_one_ulp_is_a_change_and_the_ledger_keeps_the_first(self):
        seen = {"sim.a": (0.1).hex()}
        moved = math.nextafter(0.1, 1.0)
        bad, changed, ledger = reduce.sim_guard(seen, {"sim.a": moved})
        self.assertEqual((bad, changed), ([], ["sim.a"]))
        self.assertEqual(ledger, seen)

    def test_non_finite_values_fail_without_entering_the_ledger(self):
        sim = {"sim.a": None, "sim.b": float("inf"), "sim.c": 2.0}
        bad, changed, ledger = reduce.sim_guard({"sim.a": (1.0).hex()}, sim)
        self.assertEqual((bad, changed), (["sim.a", "sim.b"], []))
        self.assertEqual(ledger, {"sim.a": (1.0).hex(),
                                  "sim.c": (2.0).hex()})


class BenchmarkFileTest(unittest.TestCase):
    def test_benchmark_json_lists_what_the_reducer_reports(self):
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         reduce.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         reduce.PER_LAYER)
        self.assertEqual({w["name"] for w in bench["workloads"]},
                         set(reduce.THROUGHPUT_NAMES))
        self.assertEqual(set(reduce.REF_S), set(reduce.THROUGHPUT_NAMES))


if __name__ == "__main__":
    unittest.main()
