"""Experiment configs, reports, and the command-line entry points."""

import functools
import json
import os
import threading
import tracemalloc

import numpy as np
import pytest

import rank_extremes
from rank_extremes import cli, experiments, graphrank, recursion
from rank_extremes.cli import main
from rank_extremes.errors import ConfigurationError, ConvergenceError, ParameterError
from rank_extremes.estimators import (
    definition_theta_from_maxima,
    definition_top_count,
    upper_order_statistics,
)
from rank_extremes.experiments import (
    DEFAULTS,
    KINDS,
    REPORT_FIELDS,
    ExperimentConfig,
    parse_dep,
    run_experiment,
)
from rank_extremes.heavytail import DependenceSpec
from rank_extremes.rng import replication_seed
from rank_extremes.theory import Component, ComponentSpec, predict_min_rule

FAST_THM2 = dict(n=20000, replications=4)

# (kind, overrides) of each replicated (kind, regime) case at small sizes,
# and the exact keys of its per-replication rows
FIXED_LENGTH_ROW = {f"{est}_{path}" for est in ("blocks", "intervals", "hill")
                    for path in ("sum", "max")} | {"pair_diff_blocks", "pair_diff_intervals"}
SMALL = dict(n=20000, replications=2)
ROW_CASES = {
    "thm1": ("verify-thm1", SMALL, FIXED_LENGTH_ROW),
    "thm2": ("verify-thm2", SMALL, FIXED_LENGTH_ROW),
    "thm3": ("verify-thm3", SMALL, FIXED_LENGTH_ROW),
    "preference": ("verify-thm4", dict(SMALL, def_replications=100, def_n=2000),
                   {"blocks_sum", "blocks_max", "pair_diff_blocks"}),
    "followers": ("verify-thm4", dict(SMALL, regime="followers", k=1.2, beta=3.0,
                                      deps="iid;mm:1,1", fixed_in_degree=10),
                  {"blocks_sum", "blocks_max", "intervals_sum", "intervals_max",
                   "pair_diff_blocks"}),
    "tail": ("verify-thm4", dict(SMALL, regime="tail", k=1.2, alpha=2.0, beta=3.0),
             {"hill_sum", "hill_max", "blocks_sum", "blocks_max", "pair_diff_blocks"}),
}


def refuse_to_sample(*args, **kwargs):
    raise AssertionError("sampled before the configuration was checked")


class TestPackageSurface:
    def test_root_exports_only_the_errors_and_entry_points(self):
        assert sorted(rank_extremes.__all__) == [
            "ConfigurationError", "ConvergenceError", "DataError", "ExperimentConfig",
            "ParameterError", "RankExtremesError", "ResourceError", "run_experiment",
        ]
        namespace = {}
        exec("from rank_extremes import *", namespace)
        for name in rank_extremes.__all__:
            assert namespace[name] is getattr(rank_extremes, name)

    def test_cli_reads_path_csv_through_recursion(self):
        # the path CSV reader lives beside its writer; cli keeps the name
        assert cli.read_path_csv is recursion.read_path_csv


class TestDepCodec:
    def test_round_trip(self):
        for code, coeffs in (("iid", (1.0,)), ("mm:1,1", (1.0, 1.0)),
                             ("mm:2,1,0.5", (2.0, 1.0, 0.5))):
            assert parse_dep(code).coeffs == coeffs

    def test_iid_parses_to_single_coefficient(self):
        assert parse_dep("iid") == DependenceSpec.iid()

    def test_bad_code_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_dep("markov:0.5")


class TestExperimentConfig:
    def test_serialize_parse_round_trip(self):
        for kind in KINDS:
            cfg = ExperimentConfig.default(kind)
            assert ExperimentConfig.parse(cfg.serialize()) == cfg

    def test_round_trip_with_overrides(self):
        cfg = ExperimentConfig.default("verify-thm2", n=50000, tol_theta=0.1)
        again = ExperimentConfig.parse(cfg.serialize())
        assert again.params["n"] == 50000
        assert again.params["tol_theta"] == 0.1

    def test_hash_tracks_content(self):
        a = ExperimentConfig.default("verify-thm2")
        b = ExperimentConfig.default("verify-thm2", seed=1)
        assert a.hash() != b.hash()
        assert a.hash() == ExperimentConfig.default("verify-thm2").hash()

    def test_long_form_kind_alias(self):
        cfg = ExperimentConfig.default("tail-equivalence")
        assert cfg.kind == "tail-eq"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig.default("verify-thm5")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig.default("verify-thm2", bogus=1)

    def test_bounds_enforced(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig.default("verify-thm2", n=500)
        with pytest.raises(ConfigurationError):
            ExperimentConfig.default("verify-thm2", replications=0)

    def test_defaults_are_complete(self):
        for kind, params in DEFAULTS.items():
            assert "seed" in params


class TestRunExperiment:
    def test_report_schema(self, tmp_path):
        cfg = ExperimentConfig.default("verify-thm2", **FAST_THM2)
        report = run_experiment(cfg, out_dir=str(tmp_path))
        for fieldname in REPORT_FIELDS:
            assert fieldname in report
        on_disk = json.loads((tmp_path / "verify-thm2.report.json").read_text())
        assert on_disk["config_hash"] == cfg.hash()
        # the estimates CSV holds every per-replication row bit for bit
        header, *lines = (tmp_path / "verify-thm2.estimates.csv").read_text().splitlines()
        keys = header.split(",")[1:]
        rows = report["estimates"]["per_replication"]
        assert keys == sorted(rows[0])
        parsed = [[float(v) for v in line.split(",")] for line in lines]
        assert parsed == [[i] + [row[k] for k in keys] for i, row in enumerate(rows)]

    def test_determinism_apart_from_timestamp(self):
        cfg = ExperimentConfig.default("verify-thm2", **FAST_THM2)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        a.pop("timestamp")
        b.pop("timestamp")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_prediction_field_delegates_to_theory(self):
        from rank_extremes.theory import predict_equal_tails
        from rank_extremes.experiments import _fixed_length_components
        from rank_extremes.theory import Component, ComponentSpec

        cfg = ExperimentConfig.default("verify-thm2", **FAST_THM2)
        report = run_experiment(cfg)
        comps = _fixed_length_components(cfg.params)
        spec = ComponentSpec(tuple(
            Component(z=z, tail=s.tail, theta=s.theta) for z, s in comps
        ))
        assert report["predicted"]["theta_of_z"] == predict_equal_tails(spec).theta_of_z

    def test_thm4_preference_prediction(self):
        cfg = ExperimentConfig.default(
            "verify-thm4", n=20000, replications=2,
            def_replications=100, def_n=5000,
        )
        report = run_experiment(cfg)
        assert report["predicted"]["theta_of_z"] == pytest.approx(0.5)
        assert report["predicted"]["regime"] == "PREFERENCE_DOMINATES"

    def test_theory_prediction_delegation(self):
        params = ExperimentConfig.default(
            "verify-thm4", regime="followers", k=1.2, beta=3.0, n_max=50,
            deps="iid;mm:1,1").params
        pred = experiments._predict("followers", params)
        # alternating theta (1, 0.5) with equal weights averages to 0.75
        assert pred["theta_of_z"] == pytest.approx(0.75)
        assert pred["k_of_z"] == 1.2 and pred["regime"] == "FOLLOWERS_DOMINATE"

    # k = beta belongs to the preference branch
    @pytest.mark.parametrize("k, beta", [(3.0, 1.0), (2.5, 2.5)])
    def test_preference_prediction_keeps_three_keys(self, k, beta):
        params = ExperimentConfig.default("verify-thm4", k=k, beta=beta).params
        assert experiments._predict("preference", params) == {
            "k_of_z": min(k, 2.0, beta), "theta_of_z": 0.5 ** beta,
            "regime": "PREFERENCE_DOMINATES"}

    @pytest.mark.parametrize("regime, k, beta, message", [
        ("followers", 3.0, 3.0, "followers regime requires k < beta"),
        ("followers", 3.0, 1.0, "followers regime requires k < beta"),
        ("preference", 1.2, 3.0, "preference regime requires k >= beta"),
    ])
    def test_predict_refuses_the_wrong_side_of_k_equals_beta(self, regime, k, beta,
                                                              message):
        params = ExperimentConfig.default("verify-thm4", regime=regime, k=k, beta=beta).params
        with pytest.raises(ConfigurationError, match=message):
            experiments._predict(regime, params)

    @pytest.mark.parametrize("jobs", [0, -3])
    @pytest.mark.parametrize("kind", ["verify-thm2", "verify-thm4", "tail-eq"])
    def test_jobs_below_one_refused_before_sampling(self, monkeypatch, kind, jobs):
        monkeypatch.setattr(experiments, "sample_weighted_pair", refuse_to_sample)
        monkeypatch.setattr(experiments, "sample_aggregate_pair", refuse_to_sample)
        monkeypatch.setattr(experiments, "compare_tail_sum_max", refuse_to_sample)
        with pytest.raises(ConfigurationError, match=f"jobs must be >= 1, got {jobs}"):
            run_experiment(ExperimentConfig.default(kind), jobs=jobs)

    @pytest.mark.parametrize("case", sorted(ROW_CASES))
    def test_per_replication_row_keys(self, case):
        kind, overrides, keys = ROW_CASES[case]
        report = run_experiment(ExperimentConfig.default(kind, **overrides))
        rows = report["estimates"]["per_replication"]
        assert len(rows) == 2
        assert all(set(row) == keys for row in rows)

    @pytest.mark.parametrize("case", sorted(ROW_CASES))
    def test_jobs_give_equal_rows_in_every_regime(self, case):
        kind, overrides, _ = ROW_CASES[case]
        cfg = ExperimentConfig.default(kind, **overrides)
        a = run_experiment(cfg, jobs=1)
        b = run_experiment(cfg, jobs=2)
        assert a["estimates"]["per_replication"] == b["estimates"]["per_replication"]
        for key in ("definition_sum", "definition_max"):
            assert (key in a["estimates"]) == (case == "preference")
            assert a["estimates"].get(key) == b["estimates"].get(key)

    @pytest.mark.parametrize("jobs", [1, 2])
    # at def_n = 300, tau = 4 each replication hands in all its draws (the
    # top 401 of 30 000 fix u_n), and the sum and max estimates differ
    @pytest.mark.parametrize("def_n, tau", [(2000, 0.5), (300, 4.0)])
    def test_streamed_definition_stage_equals_block_estimate(self, jobs, def_n, tau):
        params = ExperimentConfig.default(
            "verify-thm4", def_replications=100, def_n=def_n, tau=tau).params
        config = experiments.recursion_config_from_params(params)
        # the reference draws each whole pair and keeps its two maxima and
        # the top `count` of its preference draws, which hold u_n
        count = definition_top_count(100, def_n, tau)
        sum_maxima, max_maxima, tops = np.empty(100), np.empty(100), []
        for rep in range(100):
            pair = recursion.sample_aggregate_pair(config, def_n,
                                                   replication_seed(params["seed"], rep))
            sum_maxima[rep], max_maxima[rep] = pair.sum_values.max(), pair.max_values.max()
            tops.append(upper_order_statistics(pair.preference, min(count, def_n)))
        u_n = float(upper_order_statistics(np.concatenate(tops), count)[-1])
        want = {key: definition_theta_from_maxima(maxima, def_n, tau, u_n).estimate
                for key, maxima in (("definition_sum", sum_maxima),
                                    ("definition_max", max_maxima))}
        assert experiments._definition_stage(params, jobs) == want

    @pytest.mark.parametrize("deps", ["iid", "mm:1,1"])
    @pytest.mark.parametrize("fixed_in_degree", [-1, 0, 1])
    @pytest.mark.parametrize("damping", [0.1, 0.9])
    def test_definition_replication_equals_the_pair(self, deps, fixed_in_degree, damping):
        def_n = 3000
        params = ExperimentConfig.default(
            "verify-thm4", def_replications=100, def_n=def_n, tau=0.5, deps=deps,
            fixed_in_degree=fixed_in_degree, damping=damping).params
        count = experiments._definition_count(params)
        config = experiments.recursion_config_from_params(params)
        # one run of two replications, which share its block buffers
        run = experiments._definition_run((params, [0, 41], count))
        for rep, (sum_max, max_max, top) in zip((0, 41), run):
            pair = recursion.sample_aggregate_pair(
                config, def_n, replication_seed(params["seed"], rep))
            assert sum_max == float(pair.sum_values.max())
            assert max_max == float(pair.max_values.max())
            want = upper_order_statistics(pair.preference, min(count, def_n))
            assert top.tobytes() == want.tobytes()

    def test_definition_stage_memory_is_far_below_one_block(self):
        params = ExperimentConfig.default(
            "verify-thm4", def_replications=100, def_n=20000).params
        block = 100 * 20000 * 8  # one r x n float64 block: 16 MB
        tracemalloc.start()
        try:
            experiments._definition_stage(params, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < block / 4

    def test_tail_regime_needs_hill_fraction(self):
        cfg = ExperimentConfig.default("verify-thm4", regime="tail", hill_fraction=0.0)
        with pytest.raises(ConfigurationError, match="hill_fraction"):
            run_experiment(cfg)

    def test_unknown_thm4_regime_rejected(self):
        with pytest.raises(ConfigurationError, match="regime"):
            ExperimentConfig.default("verify-thm4", regime="fixed-length")

    def test_jobs_parallelism_is_order_stable(self):
        cfg = ExperimentConfig.default("verify-thm2", **FAST_THM2)
        a = run_experiment(cfg, jobs=1)
        b = run_experiment(cfg, jobs=2)
        assert a["estimates"]["blocks_sum_median"] == b["estimates"]["blocks_sum_median"]
        assert (
            a["estimates"]["per_replication"] == b["estimates"]["per_replication"]
        )


FOLLOWERS = dict(regime="followers", k=1.2, beta=3.0, deps="iid;mm:1,1", fixed_in_degree=3,
                 n=3000, replications=3)


def runs_of(size):
    """A stand-in for ``experiments._definition_runs``: runs of ``size``
    replications (all of them when ``size`` is ``None``), whatever the jobs."""
    def runs(r, jobs):
        step = size or r
        return [range(lo, min(lo + step, r)) for lo in range(0, r, step)]
    return runs


class TestFailingReplication:
    @staticmethod
    def fail_in_column_draws(monkeypatch, exc_type=FloatingPointError):
        def failing(stream, out, work=None):
            raise exc_type("sampler failed")

        monkeypatch.setattr(recursion.SequenceStream, "fill", failing)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_replication_is_named_and_keeps_its_type(self, jobs, monkeypatch):
        self.fail_in_column_draws(monkeypatch)
        monkeypatch.setattr(recursion, "_column_threads", lambda columns: min(2, columns))
        cfg = ExperimentConfig.default("verify-thm4", **FOLLOWERS)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="sampler failed") as info:
            run_experiment(cfg, jobs=jobs)
        seed = replication_seed(cfg.params["seed"], 0)
        assert info.value.__notes__ == [f"in verify-thm4 replication 0, seed {seed}"]
        assert threading.active_count() == before

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_definition_replication_is_named(self, jobs, monkeypatch):
        def failing(*args, **kwargs):
            raise FloatingPointError("in-degree sampler failed")

        monkeypatch.setattr(recursion, "sample_power_law_int", failing)
        params = ExperimentConfig.default(
            "verify-thm4", def_replications=100, def_n=2000).params
        with pytest.raises(FloatingPointError) as info:
            experiments._definition_stage(params, jobs)
        seed = replication_seed(params["seed"], 0)
        assert info.value.__notes__ == [
            f"in verify-thm4 definition-stage replication 0, seed {seed}"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_failure_inside_a_run_names_its_replication(self, jobs, monkeypatch):
        params = ExperimentConfig.default(
            "verify-thm4", def_replications=100, def_n=2000).params
        bad = replication_seed(params["seed"], 9)  # the third of a run of 7
        pair_maxima = experiments.pair_maxima

        def failing(config, n, seed, top, **kwargs):
            if seed == bad:
                raise FloatingPointError("definition draw failed")
            return pair_maxima(config, n, seed, top, **kwargs)

        monkeypatch.setattr(experiments, "pair_maxima", failing)
        monkeypatch.setattr(experiments, "_definition_runs", runs_of(7))
        with pytest.raises(FloatingPointError, match="definition draw failed") as info:
            experiments._definition_stage(params, jobs)
        assert info.value.__notes__ == [
            f"in verify-thm4 definition-stage replication 9, seed {bad}"]

    def test_cli_prints_the_note(self, monkeypatch, capsys):
        self.fail_in_column_draws(monkeypatch, ParameterError)
        argv = ["verify", "thm4"] + [f"--set={k}={v}" for k, v in FOLLOWERS.items()]
        assert main(argv) == 2
        seed = replication_seed(DEFAULTS["verify-thm4"]["seed"], 0)
        assert capsys.readouterr().err == (
            f"error: sampler failed\n  in verify-thm4 replication 0, seed {seed}\n")


class TestAtomicWrites:
    def test_failed_simulate_keeps_the_previous_file(self, tmp_path, monkeypatch, capsys):
        argv = ["simulate", "--set", "n=2000", "--out", str(tmp_path)]
        assert main(argv) == 0
        before = (tmp_path / "path.csv").read_bytes()

        def partial(path, fh):
            fh.write("# damping=0.5\n")
            raise OSError("disk full")

        monkeypatch.setattr(recursion.AggregatePath, "write_csv", partial)
        assert main(argv + ["--seed", "7"]) == 2
        assert "disk full" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["path.csv"]
        assert (tmp_path / "path.csv").read_bytes() == before

    def test_failed_report_keeps_both_previous_files(self, tmp_path, monkeypatch):
        cfg = ExperimentConfig.default("verify-thm2", **FAST_THM2)
        run_experiment(cfg, out_dir=str(tmp_path))
        names = sorted(os.listdir(tmp_path))
        assert names == ["verify-thm2.estimates.csv", "verify-thm2.report.json"]
        before = {name: (tmp_path / name).read_bytes() for name in names}

        def partial(fh, *args):
            fh.write("0,1")
            raise OSError("disk full")

        monkeypatch.setattr(experiments, "write_rows", partial)
        with pytest.raises(OSError, match="disk full"):
            run_experiment(ExperimentConfig.default("verify-thm2", **FAST_THM2, seed=3),
                           out_dir=str(tmp_path))
        assert sorted(os.listdir(tmp_path)) == names
        assert {name: (tmp_path / name).read_bytes() for name in names} == before

    def test_written_bytes_equal_a_direct_write(self, tmp_path):
        path = recursion.sample_aggregate(
            experiments.recursion_config_from_params(experiments.MODEL_DEFAULTS), 3000, 5)
        assert main(["simulate", "--set", "n=3000", "--seed", "5", "--out",
                     str(tmp_path)]) == 0
        assert (tmp_path / "path.csv").read_text() == path.to_csv()


class TestThreadAndJobIndependence:
    @staticmethod
    def outputs(cfg, runs, tmp_path, monkeypatch):
        """The report (without ``timestamp``) and the other files that ``cfg``
        writes, run at each ``(threads, jobs)`` of ``runs``."""
        report_name = f"{cfg.kind}.report.json"
        outputs = []
        for i, (threads, jobs) in enumerate(runs):
            out = tmp_path / str(i)
            monkeypatch.setattr(recursion, "_column_threads",
                                lambda tasks, t=threads: min(t, tasks))
            run_experiment(cfg, jobs=jobs, out_dir=str(out))
            report = json.loads((out / report_name).read_text())
            del report["timestamp"]
            files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != report_name}
            outputs.append((report, files))
        return outputs

    @pytest.mark.parametrize("threads, jobs", [(1, 2), (2, 1), (2, 2)])
    def test_followers_outputs_are_identical(self, threads, jobs, tmp_path, monkeypatch):
        cfg = ExperimentConfig.default("verify-thm4", **FOLLOWERS)
        monkeypatch.setattr(recursion, "COLUMN_BLOCK_ROWS", 1000)
        ref, got = self.outputs(cfg, [(1, 1), (threads, jobs)], tmp_path, monkeypatch)
        assert ref == got

    # the preference regime on 1000-row blocks, its definition stage in one
    # run of all 100 replications, at one thread and one job
    PREFERENCE = dict(def_replications=100, def_n=2500, n=20000, replications=2)

    @pytest.fixture(scope="class")
    def preference_reference(self, tmp_path_factory):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(recursion, "PAIR_BLOCK_ROWS", 1000)
            mp.setattr(experiments, "_definition_runs", runs_of(None))
            cfg = ExperimentConfig.default("verify-thm4", **self.PREFERENCE)
            return self.outputs(cfg, [(1, 1)], tmp_path_factory.mktemp("ref"), mp)

    @pytest.mark.parametrize("run", [1, 7, None])
    @pytest.mark.parametrize("threads, jobs", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2)])
    def test_definition_stage_outputs_are_identical(self, run, threads, jobs, tmp_path,
                                                    monkeypatch, preference_reference):
        monkeypatch.setattr(recursion, "PAIR_BLOCK_ROWS", 1000)
        monkeypatch.setattr(experiments, "_definition_runs", runs_of(run))
        cfg = ExperimentConfig.default("verify-thm4", **self.PREFERENCE)
        got = self.outputs(cfg, [(threads, jobs)], tmp_path, monkeypatch)
        assert got == preference_reference
        assert {"definition_sum", "definition_max"} <= set(got[0][0]["estimates"])

    @pytest.mark.parametrize("threads, jobs", [(1, 2), (2, 1), (3, 1), (2, 2)])
    def test_iid_kernel_outputs_are_identical(self, threads, jobs, tmp_path, monkeypatch):
        # the tail regime and its paired tail comparison, both on the
        # i.i.d.-column kernel in blocks of 1000 rows
        monkeypatch.setattr(recursion, "PAIR_BLOCK_ROWS", 1000)
        for cfg in (ExperimentConfig.default("verify-thm4", regime="tail", n=5500,
                                             replications=3),
                    ExperimentConfig.default("tail-eq", n=5500, quantile=0.99)):
            ref, got = self.outputs(cfg, [(1, 1), (threads, jobs)], tmp_path / cfg.kind,
                                    monkeypatch)
            assert ref == got


class RecordingPool:
    """A stand-in for ``ProcessPoolExecutor`` that records the workers asked
    for and maps in this process."""

    workers = []

    def __init__(self, max_workers):
        self.workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, args):
        return map(fn, args)


class TestWorkerPool:
    @pytest.mark.parametrize("jobs, tasks, workers", [
        (8, 2, [2]), (8, 20, [8]), (2, 5, [2]), (8, 1, []), (1, 5, []), (4, 0, [])])
    def test_the_pool_is_capped_at_the_tasks(self, jobs, tasks, workers, monkeypatch):
        monkeypatch.setattr(RecordingPool, "workers", [])
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
        assert experiments._map_reps(abs, list(range(-tasks, 0)), jobs) == \
            list(range(tasks, 0, -1))
        assert RecordingPool.workers == workers

    def test_verify_starts_no_more_workers_than_replications(self, monkeypatch, tmp_path):
        monkeypatch.setattr(RecordingPool, "workers", [])
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
        cfg = ExperimentConfig.default("verify-thm2", n=20000, replications=2)
        run_experiment(cfg, jobs=8, out_dir=str(tmp_path))
        assert RecordingPool.workers == [2]

    @pytest.mark.parametrize("jobs, runs", [(1, 1), (2, 8), (4, 16)])
    def test_definition_runs_are_contiguous(self, jobs, runs):
        got = experiments._definition_runs(500, jobs)
        assert len(got) in (runs, runs + 1)
        assert [rep for run in got for rep in run] == list(range(500))


class TestCliCommands:
    def test_simulate_then_estimate(self, tmp_path, capsys):
        out = str(tmp_path)
        rc = main(["simulate", "--set", "n=2000", "--seed", "5", "--out", out])
        assert rc == 0
        path_csv = os.path.join(out, "path.csv")
        assert os.path.exists(path_csv)
        rc = main([
            "estimate", "--input", path_csv, "--method", "hill",
            "--fraction", "0.05",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert payload["method"] == "hill"
        assert payload["estimate"] > 0

    def test_verify_exit_codes(self, tmp_path, capsys):
        args = ["verify", "thm2", "--set", "n=200000", "--set", "replications=4",
                "--out", str(tmp_path)]
        assert main(args) == 0
        # impossible tolerance forces a failing check and exit code 1
        assert main(args + ["--set", "tol_theta=0.0001"]) == 1

    def test_report_subcommand(self, tmp_path, capsys):
        out = str(tmp_path)
        main(["verify", "thm2", "--set", "n=200000", "--set", "replications=4",
              "--out", out])
        report_path = os.path.join(out, "verify-thm2.report.json")
        assert main(["report", "--input", report_path]) == 0
        broken = json.loads(open(report_path).read())
        broken.pop("checks")
        bad_path = os.path.join(out, "broken.json")
        with open(bad_path, "w") as fh:
            json.dump(broken, fh)
        assert main(["report", "--input", bad_path]) == 2

    def test_env_var_overrides_out(self, tmp_path, monkeypatch, capsys):
        env_dir = tmp_path / "env"
        flag_dir = tmp_path / "flag"
        monkeypatch.setenv("RANK_EXTREMES_OUT", str(env_dir))
        rc = main(["simulate", "--set", "n=1500", "--out", str(flag_dir)])
        assert rc == 0
        assert (env_dir / "path.csv").exists()
        assert not flag_dir.exists()

    def test_config_file_plus_set_override(self, tmp_path, capsys):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("n=200000\nreplications=4\n# comment\n")
        rc = main(["verify", "thm2", "--config", str(cfg_file),
                   "--set", "replications=3", "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "verify-thm2.report.json").read_text())
        assert report["config"]["replications"] == 3
        assert report["config"]["n"] == 200000

    def test_graph_pipeline(self, tmp_path, capsys):
        out = str(tmp_path)
        assert main(["graph", "gen", "--nodes", "400", "--seed", "3",
                     "--out", out]) == 0
        edges = os.path.join(out, "graph.edges")
        assert main(["graph", "pagerank", "--graph", edges, "--out", out]) == 0
        assert main(["graph", "maxlinear", "--graph", edges, "--out", out]) == 0
        assert main(["graph", "hitting", "--graph", edges, "--top-p", "0.1",
                     "--trials", "50", "--seed", "3", "--out", out]) == 0
        scores = np.loadtxt(os.path.join(out, "pagerank.csv"),
                            delimiter=",", skiprows=1)
        assert abs(scores[:, 1].sum() - 1.0) < 1e-9
        hitting = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert hitting["mean"] >= 0

    def test_unconverged_solver_exits_2_with_residual_and_iterations(
            self, tmp_path, capsys, monkeypatch):
        out = str(tmp_path)
        assert main(["graph", "gen", "--nodes", "400", "--seed", "3", "--out", out]) == 0
        edges = os.path.join(out, "graph.edges")
        # the real solver with a budget of three iterations
        budgeted = functools.partial(graphrank.pagerank, max_iter=3)
        monkeypatch.setattr(graphrank, "pagerank", budgeted)
        with open(edges) as fh:
            g = graphrank.DirectedGraph.read_edge_list(fh)
        with pytest.raises(ConvergenceError) as raised:
            budgeted(g, 0.85, np.full(g.n, 1.0 / g.n))
        capsys.readouterr()
        assert main(["graph", "pagerank", "--graph", edges, "--out", out]) == 2
        err = capsys.readouterr().err
        assert raised.value.iterations == 3
        assert err.startswith(f"error: {raised.value}\n")
        assert f"\n  residual: {raised.value.residual!r}\n" in err
        assert err.endswith("\n  iterations: 3\n")

    def test_unreadable_path_csv_exits_2(self, tmp_path, capsys):
        path_csv = tmp_path / "path.csv"
        path_csv.write_text("# n=3\nvalue\n1.5\nabc\n2.5\n")
        assert main(["estimate", "--input", str(path_csv), "--method", "hill"]) == 2
        assert f"error: {path_csv}:4: " in capsys.readouterr().err

    def test_three_field_edge_line_exits_2(self, tmp_path, capsys):
        edges = tmp_path / "graph.edges"
        edges.write_text("0 1\n1 2\n2 0 1\n")
        out = tmp_path / "out"
        assert main(["graph", "pagerank", "--graph", str(edges), "--out", str(out)]) == 2
        assert f"error: {edges}:3: " in capsys.readouterr().err
        assert not (out / "pagerank.csv").exists()

    def test_empty_edge_list_exits_2(self, tmp_path, capsys):
        edges = tmp_path / "graph.edges"
        edges.write_text("")
        assert main(["graph", "pagerank", "--graph", str(edges), "--out", str(tmp_path)]) == 2
        assert "error: node count must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, name", [
        (["verify", "thm2", "--config"], "missing.cfg"),
        (["estimate", "--method", "hill", "--input"], "nope.csv"),
        (["graph", "pagerank", "--graph"], "nope.edges"),
        (["report", "--input"], "nope.json"),
    ])
    def test_missing_input_file_exits_2_naming_it(self, tmp_path, capsys, argv, name):
        missing = str(tmp_path / name)
        assert main(argv + [missing]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and missing in err

    @pytest.mark.parametrize("action", ["pagerank", "maxlinear", "hitting"])
    def test_graph_without_edge_list_exits_2(self, tmp_path, capsys, action):
        out = tmp_path / "out"
        assert main(["graph", action, "--out", str(out)]) == 2
        assert f"graph {action} needs --graph" in capsys.readouterr().err
        assert not out.exists()

    def test_report_that_is_not_json_exits_2(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        report_path.write_text("kind=verify-thm2\n")
        assert main(["report", "--input", str(report_path)]) == 2
        assert "invalid report, not JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("report", ["3", "[]", '"text"'])
    def test_report_that_is_not_an_object_exits_2(self, tmp_path, capsys, report):
        report_path = tmp_path / "report.json"
        report_path.write_text(report)
        assert main(["report", "--input", str(report_path)]) == 2
        assert "invalid report, expected a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("checks, problem", [
        (5, "'checks' must be a list"),
        ([3], "check 0 must be an object"),
        ([{"name": "x", "passed": True}], "check 0 must be an object"),
        ([{"name": "x", "value": "high", "target": 1, "tol": 0.1, "passed": True}],
         "check 0 value must be a number or null"),
    ])
    def test_report_with_malformed_checks_exits_2(self, tmp_path, capsys, checks, problem):
        report = {field: None for field in REPORT_FIELDS}
        report.update(checks=checks, passed=True)
        report_path = tmp_path / "report.json"
        report_path.write_text(json.dumps(report))
        assert main(["report", "--input", str(report_path)]) == 2
        assert problem in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, message", [
        (["def_replications=99"], "need at least 100 replications"),
        (["tau=0"], "tau must be positive"),
        (["tau=-1"], "tau must be positive"),
        (["def_n=5000", "tau=5000"], "incompatible with path length"),
        (["def_replications=200", "tau=50000"], "budget"),
    ])
    def test_bad_definition_stage_exits_2_before_sampling(self, tmp_path, capsys,
                                                          monkeypatch, overrides, message):
        def refuse(*args, **kwargs):
            raise AssertionError("sampled before the definition stage was checked")

        monkeypatch.setattr(experiments, "sample_aggregate_pair", refuse)
        out = tmp_path / "out"
        argv = ["verify", "thm4", "--set", "n=20000", "--set", "replications=2"]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv + ["--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_jobs_0_exits_2_before_sampling(self, tmp_path, capsys, monkeypatch):
        # thm4's definition stage sizes its chunks by jobs, so 0 must not reach it
        monkeypatch.setattr(experiments, "sample_aggregate_pair", refuse_to_sample)
        out = tmp_path / "out"
        assert main(["verify", "thm4", "--jobs", "0", "--out", str(out)]) == 2
        assert "jobs must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    # 0 is a count, not an absent flag: it must not fall back to --fraction
    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_hill_top_count_below_one_exits_2(self, tmp_path, capsys, count):
        assert main(["simulate", "--set", "n=2000", "--out", str(tmp_path)]) == 0
        rc = main(["estimate", "--input", str(tmp_path / "path.csv"), "--method", "hill",
                   "--top-count", count])
        assert rc == 2
        assert "top count must be an integer >= 1" in capsys.readouterr().err

    def test_invalid_config_exits_2(self, capsys):
        assert main(["verify", "thm2", "--set", "nonsense=1"]) == 2

    def test_graph_rejects_config_and_set(self, tmp_path, capsys):
        cfg_file = tmp_path / "graph.cfg"
        cfg_file.write_text("nodes=50\n")
        for extra in (["--set", "bogus=1"], ["--config", str(cfg_file)]):
            out = tmp_path / "out"
            assert main(["graph", "gen", "--nodes", "50", "--out", str(out)] + extra) == 2
            assert "error:" in capsys.readouterr().err
            assert not out.exists()

    def test_tail_eq_report_is_strict_json(self, tmp_path, capsys):
        # at this level the threshold is the path maximum, so no value
        # exceeds it and the ratio row is NaN
        rc = main(["tail-eq", "--set", "n=20000", "--set", "quantile=0.99999",
                   "--out", str(tmp_path)])
        assert rc == 1
        report_path = tmp_path / "tail-eq.report.json"

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        report = json.loads(report_path.read_text(), parse_constant=reject)
        assert report["estimates"]["ratio"] is None
        checks = {c["name"]: c for c in report["checks"]}
        assert checks["reliable_exceedances"]["target"] == [50.0, None]
        assert main(["report", "--input", str(report_path)]) == 1

    def test_verify_thm2_with_all_iid_weights_runs(self, tmp_path, capsys):
        # the predicted weighted average of ones used to round past 1 here
        rc = main(["verify", "thm2", "--set", "ks=2,2,2,2,2,2,2,2",
                   "--set", "weights=2.9,2.3,1,0.9,2.6,2.7,1.6,1.1",
                   "--set", "scales=1,1,1,1,1,1,1,1",
                   "--set", "deps=iid;iid;iid;iid;iid;iid;iid;iid",
                   "--set", "n=20000", "--set", "replications=2", "--out", str(tmp_path)])
        assert rc in (0, 1)  # two replications may miss a tolerance
        report = json.loads((tmp_path / "verify-thm2.report.json").read_text())
        assert report["predicted"]["theta_of_z"] == 1.0

    def test_tail_eq_smoke(self, tmp_path, capsys):
        rc = main(["tail-eq", "--set", "n=1000000", "--out", str(tmp_path)])
        assert rc in (0, 1)  # small n may be noisy; the command must run
        assert (tmp_path / "tail-eq.report.json").exists()

    def test_verify_thm1_predicts_the_min_rule(self, tmp_path, capsys):
        rc = main(["verify", "thm1", "--set", "n=20000", "--set", "replications=2",
                   "--out", str(tmp_path)])
        assert rc in (0, 1)  # two replications may miss a tolerance
        report = json.loads((tmp_path / "verify-thm1.report.json").read_text())
        from rank_extremes.experiments import _fixed_length_components

        spec = ComponentSpec(tuple(
            Component(z=z, tail=s.tail, theta=s.theta)
            for z, s in _fixed_length_components(report["config"])
        ))
        pred = predict_min_rule(spec)
        assert report["predicted"] == {
            "k_of_z": pred.k_of_z, "theta_of_z": pred.theta_of_z,
            "c_of_z": pred.c_of_z, "regime": pred.regime,
        }
        csv_lines = (tmp_path / "verify-thm1.estimates.csv").read_text().splitlines()
        assert csv_lines[0].startswith("replication,") and len(csv_lines) == 3

    @pytest.mark.parametrize("argv, key", [
        (["verify", "thm2", "--set", "n=abc"], "n"),
        (["verify", "thm2", "--set", "tol_theta=wide"], "tol_theta"),
        (["verify", "thm2", "--set", "ks=1,abc,2"], "ks"),
        (["verify", "thm2", "--set", "deps=iid;mm:1,x;iid"], "deps"),
        (["verify", "thm4", "--set", "replications=2.5"], "replications"),
        (["simulate", "--set", "n=1e5"], "n"),
        (["simulate", "--set", "deps=mm:1,abc"], "deps"),
    ])
    @pytest.mark.parametrize("via", ["set", "config"])
    def test_bad_value_exits_2_naming_the_key(self, tmp_path, capsys, argv, key, via):
        if via == "config":
            cfg_file = tmp_path / "bad.cfg"
            cfg_file.write_text(argv[-1] + "\n")
            argv = argv[:-2] + ["--config", str(cfg_file)]
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        assert f"error: parameter '{key}' must be " in capsys.readouterr().err
        assert not out.exists()

    def test_config_kind_must_match_the_command(self, tmp_path, capsys):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("kind=verify-thm3\nn=20000\nreplications=2\n")
        out = tmp_path / "out"
        assert main(["verify", "thm2", "--config", str(cfg_file), "--out", str(out)]) == 2
        assert "kind 'verify-thm3'" in capsys.readouterr().err
        assert not out.exists()

    def test_serialized_config_runs_under_its_own_command(self, tmp_path, capsys):
        cfg = ExperimentConfig.default("verify-thm2", n=20000, replications=2)
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(cfg.serialize())
        assert main(["verify", "thm2", "--config", str(cfg_file),
                     "--out", str(tmp_path)]) in (0, 1)
        report = json.loads((tmp_path / "verify-thm2.report.json").read_text())
        assert report["config_hash"] == cfg.hash()
