"""Self-test of the benchmark's checks: each passes on the program's real
output and fails on a deliberately corrupted copy of it.

    python3 perfbench/selftest.py

Sizes are small, so the whole file runs in a few seconds.
"""

from __future__ import annotations

import copy
import io
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402
from scipy import sparse  # noqa: E402
from scipy.sparse.linalg import spsolve  # noqa: E402

from rank_extremes import graphrank, recursion  # noqa: E402
from rank_extremes.estimators import ThresholdRule, hill  # noqa: E402
from rank_extremes.experiments import ExperimentConfig, run_experiment  # noqa: E402
from rank_extremes.heavytail import InDegreeSpec, TailSpec, sample_pareto  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _small_graph(n=400, seed=5):
    g = graphrank.gen_power_law_graph(n, 1.5, seed)
    buf = io.StringIO()
    g.write_edge_list(buf)
    src, dst = checks.read_edges(buf.getvalue())
    return g, src, dst


def _heavy_q(n, seed=9):
    q = 1.0 / (1.0 - np.random.default_rng(seed).random(n))
    return q / q.sum()


class StrictJSON(unittest.TestCase):
    def test_valid_report_passes(self):
        self.assertEqual(checks.strict_json_failures('{"a": [1.5, null]}', "r"), [])

    def test_infinity_and_nan_fail(self):
        for text in ('{"target": [50.0, Infinity]}', '{"ratio": NaN}'):
            self.assertTrue(checks.strict_json_failures(text, "r")[0].startswith(
                workloads.STRICT_JSON))

    def test_program_tail_eq_report_fails(self):
        cfg = ExperimentConfig.default("tail-eq", n=20_000, quantile=0.999)
        text = json.dumps(run_experiment(cfg))
        self.assertTrue(checks.strict_json_failures(text, "tail-eq"))


class VerifyReport(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cfg = ExperimentConfig.default("verify-thm2", n=20_000, replications=3,
                                       blocks_quantile=0.99, intervals_quantile=0.99)
        cls.report = json.loads(json.dumps(run_experiment(cfg)))
        cls.medians = [(k, cls.report["estimates"][f"{k}_median"], 1e-12, False)
                       for k in workloads.THETA_KEYS]

    def test_passes_on_program_report(self):
        self.assertEqual(checks.verify_report_failures(
            self.report, {"theta_of_z": checks.THETA_THM2}, self.medians, 3), [])

    def test_corrupted_median_fails(self):
        bad = copy.deepcopy(self.report)
        bad["estimates"]["blocks_sum_median"] += 0.01
        self.assertTrue(checks.verify_report_failures(bad, {}, self.medians, 3))

    def test_corrupted_prediction_fails(self):
        bad = copy.deepcopy(self.report)
        bad["predicted"]["theta_of_z"] = 0.5
        self.assertTrue(checks.verify_report_failures(
            bad, {"theta_of_z": checks.THETA_THM2}, [], 3))

    def test_missing_replication_fails(self):
        bad = copy.deepcopy(self.report)
        bad["estimates"]["per_replication"].pop()
        self.assertTrue(checks.verify_report_failures(bad, {}, [], 3))

    def test_estimates_csv_rows(self):
        good = "replication,a\n0,1\n1,2\n2,3\n"
        self.assertEqual(checks.estimates_csv_failures(good, 3), [])
        self.assertTrue(checks.estimates_csv_failures(good, 4))

    def test_closed_forms(self):
        # z**k-weighted average of (1, 1/2, 1/4) with z = (1, 1, 2), k = 2
        self.assertAlmostEqual(checks.THETA_THM2, (1 + 0.5 + 4 * 0.25) / 6, places=15)


class TailEquivalence(unittest.TestCase):
    good = {"config": {"ratio_low": 0.85, "ratio_high": 1.15},
            "estimates": {"ratio": 1.025, "exceed_sum": 1025, "exceed_max": 1000,
                          "reliable": True}}

    def test_passes(self):
        self.assertEqual(checks.tail_eq_failures(self.good), [])

    def test_ratio_out_of_band_or_inconsistent_fails(self):
        for key, value in (("ratio", 1.3), ("exceed_sum", 1100), ("reliable", False)):
            bad = copy.deepcopy(self.good)
            bad["estimates"][key] = value
            self.assertTrue(checks.tail_eq_failures(bad), key)


class Estimators(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.values = sample_pareto(TailSpec(1.5), 50_000, 3)

    def test_hill_matches_program(self):
        est = json.loads(hill(self.values, ThresholdRule.top_fraction(0.01)).to_json())
        self.assertEqual(checks.hill_failures(self.values, est, 0.01), [])
        self.assertEqual(checks.exceedance_failures(self.values, est), [])
        est["estimate"] *= 1 + 1e-9
        self.assertTrue(checks.hill_failures(self.values, est, 0.01))

    def test_exceedance_count_and_range(self):
        u = float(np.quantile(self.values, 0.99))
        est = {"method": "intervals", "estimate": 0.9, "threshold": u,
               "exceedances": int(np.count_nonzero(self.values > u))}
        self.assertEqual(checks.exceedance_failures(self.values, est), [])
        self.assertTrue(checks.exceedance_failures(self.values,
                                                   dict(est, exceedances=est["exceedances"] + 1)))
        self.assertTrue(checks.exceedance_failures(self.values, dict(est, estimate=1.2)))

    def test_path_csv(self):
        config = recursion.RecursionConfig(
            damping=0.5, in_degree=InDegreeSpec(2.0, 100), follower_tail=TailSpec(2.0),
            preference_tail=TailSpec(3.0))
        text = recursion.sample_aggregate(config, 5_000, 4).to_csv()
        meta, values = checks.read_path_csv(text)
        self.assertEqual(checks.path_failures(meta, values, 5_000, 0.5), [])
        values[7] = 0.25
        self.assertTrue(checks.path_failures(meta, values, 5_000, 0.5))
        self.assertTrue(checks.path_failures(meta, values[:-1], 5_000, 0.5))


class Graphs(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.g, cls.src, cls.dst = _small_graph()
        cls.n = cls.g.n

    def test_edges_read_back(self):
        self.assertEqual(checks.edge_failures(self.src, self.dst, self.g.src, self.g.dst), [])
        bad = self.dst.copy()
        bad[0] = (bad[0] + 1) % self.n
        self.assertTrue(checks.edge_failures(self.src, bad, self.g.src, self.g.dst))

    def test_pagerank_against_spsolve_and_residual_bound(self):
        c, q = 0.85, np.full(self.n, 1.0 / self.n)
        rank = graphrank.pagerank(self.g, c, q)
        buf = io.StringIO()
        rank.write_csv(buf)
        ids, scores = checks.read_rank_csv(buf.getvalue())
        a = checks._transition(self.src, self.dst, self.n)
        exact = spsolve(sparse.identity(self.n, format="csc") - c * a.tocsc(), (1 - c) * q)
        self.assertLess(np.max(np.abs(scores - exact)), 1e-9)
        self.assertEqual(checks.pagerank_failures(self.src, self.dst, self.n, c, q, ids,
                                                  scores), [])
        scores[3] += 1e-8
        self.assertTrue(checks.pagerank_failures(self.src, self.dst, self.n, c, q, ids,
                                                 scores))

    def test_max_linear_fixed_point(self):
        c, q = 0.85, _heavy_q(self.n)
        rank = graphrank.max_linear_rank(self.g, c, q)
        self.assertGreater(rank.iterations, 1)
        self.assertEqual(checks.max_linear_failures(self.src, self.dst, self.n, c, q,
                                                    rank.scores), [])
        bad = rank.scores.copy()
        bad[int(np.argmax(bad))] *= 1.001
        self.assertTrue(checks.max_linear_failures(self.src, self.dst, self.n, c, q, bad))

    def test_hitting(self):
        good = {"mean": 9.7, "median": 6.0, "target_size": 1000}
        self.assertEqual(checks.hitting_failures(good, 100_000, 0.01), [])
        self.assertTrue(checks.hitting_failures(dict(good, target_size=999), 100_000, 0.01))
        self.assertTrue(checks.hitting_failures(dict(good, mean=float("nan")), 100_000, 0.01))


class BranchingTree(unittest.TestCase):
    def test_closed_form_root(self):
        tbt = workloads.TBT
        config = recursion.RecursionConfig(
            damping=tbt["c"], in_degree=InDegreeSpec(2.0, tbt["d"]),
            follower_tail=TailSpec(2.0), preference_tail=TailSpec(3.0),
            fixed_in_degree=tbt["d"])
        sample = recursion.simulate_tbt(config, 4, 7, 1, constant_preference=tbt["q"])
        args = (tbt["c"], tbt["d"], 4, tbt["q"], 7)
        self.assertEqual(checks.tbt_failures(sample.root_values, *args), [])
        bad = sample.root_values.copy()
        bad[2] *= 1 + 1e-6
        self.assertTrue(checks.tbt_failures(bad, *args))


class Tracing(unittest.TestCase):
    def test_spans_counts_and_restore(self):
        from rank_extremes import estimators, experiments, heavytail

        original = estimators.hill
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertIsNot(experiments.hill, original)
            tracer.active = True
            values = heavytail.sample_pareto(TailSpec(1.5), 10_000, 3)
            estimators.hill(values, ThresholdRule.quantile(0.99))
            tracer.active = False
        finally:
            tracer.uninstall()
        self.assertIs(experiments.hill, original)
        metrics = tracer.metrics(1, 0.0)
        self.assertEqual(metrics["estimators.hill.calls"]["value"], 1)
        # the quantile rule calls nearest_rank_quantile inside hill
        self.assertEqual(metrics["estimators.nearest_rank_quantile.calls"]["value"], 1)
        self.assertEqual(metrics["heavytail.sample_pareto.values"]["value"], 10_000)
        self.assertEqual(len(metrics), len(spans.metric_names()))

    def test_missing_function_is_absent(self):
        from rank_extremes import heavytail

        saved = heavytail.sample_sequence
        del heavytail.sample_sequence
        tracer = spans.Tracer()
        try:
            tracer.install()
            tracer.uninstall()
        finally:
            heavytail.sample_sequence = saved
        self.assertEqual(tracer.absent, ["heavytail.sample_sequence"])
        metrics = tracer.metrics(1, 0.0)
        self.assertIsNone(metrics["heavytail.sample_sequence.s"]["value"])
        self.assertEqual(metrics["heavytail.sample_pareto.s"]["value"], 0.0)


if __name__ == "__main__":
    unittest.main()
