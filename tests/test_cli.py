"""Experiment configs, reports, and the command-line entry points."""

import ast
import functools
import json
import os
import pkgutil
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rank_extremes
from rank_extremes import cli, experiments, graphrank, recursion
from rank_extremes.cli import main
from rank_extremes.errors import ConfigurationError, ConvergenceError, ParameterError
from rank_extremes.estimators import (
    TailSample,
    definition_theta_from_maxima,
    definition_top_count,
    upper_order_statistics,
)
from rank_extremes.experiments import (
    DEFAULTS,
    REPORT_FIELDS,
    ExperimentConfig,
    parse_dep,
    parse_deps,
    run_experiment,
)
from rank_extremes.heavytail import DependenceSpec, theoretical_mm_theta
from rank_extremes.recursion import BlockRing
from rank_extremes.rng import replication_seed
from rank_extremes.theory import predict_equal_tails, predict_min_rule
from oracles import (
    outcome,
    replication_row,
    replication_seed_of,
    traced,
    whole_pair,
    whole_path_row,
)

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


# the functions that experiments imports from recursion to draw a pair, its
# maxima or its preference values
SAMPLERS = ("aggregate_pair_blocks", "compare_tail_sum_max", "pair_maxima",
            "preference_blocks", "weighted_pair_blocks")


def refuse_sampling(monkeypatch):
    """Make every sampler of :data:`SAMPLERS` refuse to run in experiments."""
    for name in SAMPLERS:
        monkeypatch.setattr(experiments, name, refuse_to_sample)


def component_arrays(config):
    """``z, k, c, theta`` of a fixed-length config's components, read from
    its keys: each theta that of the component's moving-maxima spec."""
    ks, zs, cs = ([float(v) for v in config[key].split(",")]
                  for key in ("ks", "weights", "scales"))
    thetas = [theoretical_mm_theta(dep, k) for dep, k in zip(parse_deps(config["deps"]), ks)]
    return zs, ks, cs, thetas


# The private names that tests may reach, each guarding what no public call
# shows: module._name -> why (TestPackageSurface scans the tests for others)
PRIVATE_NAMES_TESTED = {
    "experiments._replicate": "the executor's pool sizes and runs, which no output shows",
    "experiments._run": "the executor's runs, which no output shows",
    "experiments._runs": "the run cut, which tests of exact pooling set to any run length",
    "recursion._pair_blocks": "the blocks pair_maxima selects from, which a test of exact "
                              "pooling fills with tied draws",
    "recursion._draw_bound": "the draw bound's margin over a pow off by a few ulps",
    "recursion._sum_bounds": "the row-sum bound's margin over the summation's rounding",
    "textio._exact": "which route, the exact reader or np.loadtxt, read each chunk",
    "textio._EXACT_LONG_DOUBLE": "the reader's switch between its two exact routes",
    "heavytail._TABLES": "the in-degree tables that a law's draws leave cached",
    "heavytail._table_bytes": "the tables' memory budget",
    "heavytail._power_law_pmf": "how often a law's tables are built",
    "heavytail._power_law_cdf": "the guide table against the cdf it is read from",
    "heavytail._power_law_guide": "the guide table's buckets",
    "heavytail._power_law_lookup": "the lookup at chosen uniforms next to cdf entries",
    "heavytail._frechet": "the Frechet draws as their expression, bit for bit",
    "graphrank._fixed_point": "the CSR reference runs the same loop, so only the step differs",
}


def private_names(tree, modules):
    """The ``module._name`` strings that a test file's syntax tree reaches:
    attributes ``module._name``, ``from rank_extremes.module import _name``
    and calls such as ``setattr(module, "_name", ...)`` (dunders aside)."""
    def private(name):
        return name.startswith("_") and not name.startswith("__")
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("rank_extremes."):
            module = node.module.split(".", 1)[1]
            found.update(f"{module}.{a.name}" for a in node.names if private(a.name))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules and private(node.attr)):
            found.add(f"{node.value.id}.{node.attr}")
        elif (isinstance(node, ast.Call) and len(node.args) >= 2
              and isinstance(node.args[0], ast.Name) and node.args[0].id in modules
              and isinstance(node.args[1], ast.Constant)
              and isinstance(node.args[1].value, str) and private(node.args[1].value)):
            found.add(f"{node.args[0].id}.{node.args[1].value}")
    return found


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

    def test_samplers_name_every_sampler_experiments_imports(self):
        imported = {name for name, obj in vars(experiments).items()
                    if callable(obj) and getattr(obj, "__module__", None) == recursion.__name__}
        others = {"BlockRing", "RecursionConfig"}
        assert imported - others == set(SAMPLERS)

    def test_cli_reads_path_csv_through_recursion(self):
        # the path CSV reader lives beside its writer; cli keeps the name
        assert cli.read_path_csv is recursion.read_path_csv

    def test_cli_import_loads_no_scipy_special(self, tmp_path):
        # no command uses scipy, not even to rank a graph; scipy.special
        # alone cost every command about 0.1 s and 5 MB at start
        out, edges = str(tmp_path), str(tmp_path / "graph.edges")
        runs = [["graph", "gen", "--nodes", "300", "--seed", "3", "--out", out],
                ["graph", "pagerank", "--graph", edges, "--out", out],
                ["graph", "hitting", "--graph", edges, "--out", out]]
        code = (f"import sys; from rank_extremes.cli import main; "
                f"assert [main(a) for a in {runs!r}] == [0, 0, 0]; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        src = os.path.dirname(os.path.dirname(rank_extremes.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=path), check=True)
        assert run.stdout.splitlines()[-1] == "[]"

    def test_tests_reach_only_the_listed_private_names(self):
        # tests drive the public surface; a private name stays in reach only
        # where no public call shows what it guards
        modules = {m.name for m in pkgutil.iter_modules(rank_extremes.__path__)}
        tests_dir = os.path.dirname(os.path.abspath(__file__))
        reached = {}
        for name in sorted(os.listdir(tests_dir)):
            if name.endswith(".py"):
                with open(os.path.join(tests_dir, name)) as fh:
                    for found in private_names(ast.parse(fh.read()), modules):
                        reached.setdefault(found, name)
        assert {k: v for k, v in reached.items() if k not in PRIVATE_NAMES_TESTED} == {}

    def test_the_scan_sees_each_form(self):
        source = ("from rank_extremes.recursion import _a, b\nrecursion._b(); other._c\n"
                  "recursion.__name__; setattr(experiments, '_d', 1); setattr(cli, 'e', 2)\n")
        assert private_names(ast.parse(source), {"recursion", "experiments", "cli"}) == {
            "recursion._a", "recursion._b", "experiments._d"}


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
    @staticmethod
    def read_back(cfg, tmp_path, monkeypatch):
        """The config that the command running ``cfg.kind`` builds from
        ``cfg.serialize()`` given as its ``--config`` file."""
        path = tmp_path / f"{cfg.kind}.cfg"
        path.write_text(cfg.serialize())
        built = []

        def record(config, **_):
            built.append(config)
            return {"checks": [], "passed": True}

        monkeypatch.setattr(experiments, "run_experiment", record)
        command = cfg.kind.split("-")
        if command[0] != "verify":
            command = [cfg.kind]
        assert main([*command, "--config", str(path)]) == 0
        return built[0]

    def test_serialize_parse_round_trip(self, tmp_path, monkeypatch, capsys):
        for kind in DEFAULTS:
            cfg = ExperimentConfig.default(kind)
            assert self.read_back(cfg, tmp_path, monkeypatch) == cfg

    def test_round_trip_with_overrides(self, tmp_path, monkeypatch, capsys):
        cfg = ExperimentConfig.default("verify-thm2", n=50000, tol_theta=0.1)
        again = self.read_back(cfg, tmp_path, monkeypatch)
        assert again.params["n"] == 50000
        assert again.params["tol_theta"] == 0.1

    def test_hash_tracks_content(self):
        a = ExperimentConfig.default("verify-thm2")
        b = ExperimentConfig.default("verify-thm2", seed=1)
        assert a.hash() != b.hash()
        assert a.hash() == ExperimentConfig.default("verify-thm2").hash()

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
        with pytest.raises(ConfigurationError, match="seed must be >= 0, got -1"):
            ExperimentConfig("verify-thm2", dict(DEFAULTS["verify-thm2"], seed=-1))

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
        cfg = ExperimentConfig.default("verify-thm2", **FAST_THM2)
        report = run_experiment(cfg)
        pred = predict_equal_tails(*component_arrays(cfg.params))
        assert report["predicted"]["theta_of_z"] == pred.theta_of_z

    def test_thm4_preference_prediction(self):
        cfg = ExperimentConfig.default(
            "verify-thm4", n=20000, replications=2,
            def_replications=100, def_n=5000,
        )
        report = run_experiment(cfg)
        assert report["predicted"]["theta_of_z"] == pytest.approx(0.5)
        assert report["predicted"]["regime"] == "PREFERENCE_DOMINATES"

    def test_theory_prediction_delegation(self):
        cfg = ExperimentConfig.default(
            "verify-thm4", regime="followers", k=1.2, beta=3.0, n_max=50,
            deps="iid;mm:1,1", fixed_in_degree=10, **SMALL)
        pred = run_experiment(cfg)["predicted"]
        # alternating theta (1, 0.5) with equal weights averages to 0.75
        assert pred["theta_of_z"] == pytest.approx(0.75)
        assert pred["k_of_z"] == 1.2 and pred["regime"] == "FOLLOWERS_DOMINATE"
        # 50 equal terms 0.5**1.2 of a series that has not converged
        assert pred["c_of_z"] == pytest.approx(50 * 0.5**1.2)
        assert pred["scale_converged"] is False

    # k = beta belongs to the preference branch
    @pytest.mark.parametrize("k, beta", [(3.0, 1.0), (2.5, 2.5)])
    def test_preference_prediction_keeps_three_keys(self, k, beta):
        cfg = ExperimentConfig.default("verify-thm4", k=k, beta=beta, def_replications=100,
                                       def_n=2000, **SMALL)
        assert run_experiment(cfg)["predicted"] == {
            "k_of_z": min(k, 2.0, beta), "theta_of_z": 0.5 ** beta,
            "regime": "PREFERENCE_DOMINATES"}

    def test_preference_prediction_memory_at_a_million_followers(self):
        # the prediction holds three arrays of n_max floats at once (the
        # follower thetas, the weights c * z**k and their partial sums), and
        # its constant damping, k and c as stride-0 views: 22.9 MB traced at
        # n_max = 10^6, 45.8 MB with the constants as full arrays and 245 MB
        # with an object per column
        cfg = ExperimentConfig.default("verify-thm4", n_max=10**6, def_replications=100,
                                       def_n=5000, **SMALL)
        report, peak = traced(lambda: run_experiment(cfg))
        assert report["predicted"]["theta_of_z"] == 0.5
        assert peak < 25 * 2**20, peak

    @pytest.mark.parametrize("regime, k, beta, message", [
        ("followers", 3.0, 3.0, "followers regime requires k < beta"),
        ("followers", 3.0, 1.0, "followers regime requires k < beta"),
        ("preference", 1.2, 3.0, "preference regime requires k >= beta"),
    ])
    def test_predict_refuses_the_wrong_side_of_k_equals_beta(self, monkeypatch, regime, k,
                                                              beta, message):
        refuse_sampling(monkeypatch)
        cfg = ExperimentConfig.default("verify-thm4", regime=regime, k=k, beta=beta)
        with pytest.raises(ConfigurationError, match=message):
            run_experiment(cfg)

    @pytest.mark.parametrize("key, value, error, message", [
        ("damping", 1.5, ParameterError, "damping must be in"),
        ("alpha", -1.0, ParameterError, "alpha must be positive"),
        ("n_max", 0, ParameterError, "n_max must be >= 1"),
        ("k", 0.0, ParameterError, "tail index k must be positive"),
        ("fixed_in_degree", 500, ConfigurationError, "fixed_in_degree 500 exceeds"),
    ])
    def test_tail_regime_refuses_bad_model_keys_before_sampling(self, monkeypatch, key,
                                                                 value, error, message):
        # refused by the prediction, so no replication's note names it
        refuse_sampling(monkeypatch)
        cfg = ExperimentConfig.default("verify-thm4", regime="tail", **{key: value})
        with pytest.raises(error, match=message) as exc:
            run_experiment(cfg)
        assert not hasattr(exc.value, "__notes__")

    @pytest.mark.parametrize("jobs", [0, -3])
    @pytest.mark.parametrize("kind", ["verify-thm2", "verify-thm4", "tail-eq"])
    def test_jobs_below_one_refused_before_sampling(self, monkeypatch, kind, jobs):
        refuse_sampling(monkeypatch)
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
        cfg = ExperimentConfig.default("verify-thm4", def_replications=100, def_n=def_n,
                                       tau=tau, n=1000, replications=1)
        config = experiments.recursion_config_from_params(cfg.params)
        # the reference draws each whole pair and keeps its two maxima and
        # the top `count` of its preference draws, which hold u_n
        count = definition_top_count(100, def_n, tau)
        sum_maxima, max_maxima, tops = np.empty(100), np.empty(100), []
        for rep in range(100):
            sums, maxes, q = whole_pair(config, def_n, replication_seed(cfg.params["seed"], rep))
            sum_maxima[rep], max_maxima[rep] = sums.max(), maxes.max()
            tops.append(upper_order_statistics(q, min(count, def_n)))
        u_n = float(upper_order_statistics(np.concatenate(tops), count)[-1])
        got = run_experiment(cfg, jobs=jobs)["estimates"]
        for key, maxima in (("definition_sum", sum_maxima), ("definition_max", max_maxima)):
            assert got[key] == definition_theta_from_maxima(maxima, def_n, tau, u_n).estimate

    @pytest.mark.parametrize("deps", ["iid", "mm:1,1"])
    @pytest.mark.parametrize("fixed_in_degree", [-1, 0, 1])
    @pytest.mark.parametrize("damping", [0.1, 0.9])
    def test_definition_replication_equals_the_pair(self, deps, fixed_in_degree, damping):
        # the maxima of two definition replications that share their block
        # buffers and their calibration sample, as a run of them does
        def_n = 3000
        params = ExperimentConfig.default(
            "verify-thm4", def_replications=100, def_n=def_n, tau=0.5, deps=deps,
            fixed_in_degree=fixed_in_degree, damping=damping).params
        count = definition_top_count(100, def_n, 0.5)
        config = experiments.recursion_config_from_params(params)
        ring, calibration, draws = BlockRing(), TailSample(count), []
        for rep in (0, 41):
            seed = replication_seed(params["seed"], rep)
            sum_max, max_max = recursion.pair_maxima(config, def_n, seed, calibration,
                                                     ring=ring)
            sums, maxes, q = whole_pair(config, def_n, seed)
            assert (sum_max, max_max) == (float(sums.max()), float(maxes.max()))
            draws.append(q)
            top = calibration.largest(min(count, calibration.n))
            pooled = np.concatenate(draws)
            assert top.tobytes() == upper_order_statistics(pooled, min(count, len(pooled))).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(def_n=st.integers(2, 120), tau=st.floats(0.005, 1.0), p=st.floats(0.2, 0.9),
           block=st.integers(1, 40), cuts=st.sets(st.integers(1, 99), max_size=12))
    def test_runs_pool_tied_draws_exactly(self, def_n, tau, p, block, cuts):
        # geometric integer draws, full of ties, as pair_maxima's blocks of
        # `block` rows, of which it feeds each one's top count (about 100 *
        # tau, often fewer than a block holds); the 100 replications cut into
        # runs at `cuts`: u_n, the count-th largest of the runs' tops, is that
        # of all pooled draws
        def draws(seed):
            return np.random.default_rng(seed).geometric(p, def_n).astype(float)

        def integer_blocks(config, n, seed, rows, ring, floor):
            q = draws(seed)
            for lo in range(0, n, block):
                yield np.zeros(1), np.zeros(1), None, q[lo:lo + block]

        def integer_maxima(config, n, seed, calibration, ring=None):
            with pytest.MonkeyPatch.context() as blocks:
                blocks.setattr(recursion, "_pair_blocks", integer_blocks)
                return recursion.pair_maxima(config, n, seed, calibration, ring=ring)

        def runs(r, workers):
            bounds = [0, *sorted(c for c in cuts if c < r), r]
            return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]

        thresholds = []

        def recording(maxima, n, tau, u_n):
            thresholds.append(u_n)
            return definition_theta_from_maxima(maxima, n, tau, u_n)

        cfg = ExperimentConfig.default("verify-thm4", def_replications=100, def_n=def_n,
                                       tau=tau, n=1000, replications=1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(experiments, "pair_maxima", integer_maxima)
            mp.setattr(experiments, "_runs", runs)
            mp.setattr(experiments, "definition_theta_from_maxima", recording)
            mp.setattr(experiments, "available_cpus", lambda: 1)
            run_experiment(cfg)
        pooled = np.concatenate([draws(replication_seed(cfg.params["seed"], rep))
                                 for rep in range(100)])
        count = definition_top_count(100, def_n, tau)
        assert thresholds == [float(upper_order_statistics(pooled, count)[-1])] * 2

    def test_definition_stage_memory_is_far_below_one_block(self):
        cfg = ExperimentConfig.default("verify-thm4", def_replications=100, def_n=20000,
                                       n=1000, replications=1)
        block = 100 * 20000 * 8  # one r x n float64 block: 16 MB
        _, peak = traced(lambda: run_experiment(cfg))
        assert peak < block / 4

    def test_definition_stage_main_process_holds_the_runs_tops(self, monkeypatch):
        # the 500 replications go to two worker processes in 9 runs, or, on
        # one CPU, to one run on this thread; each run feeds one tail sample
        # of 501 and hands back its maxima and its top 501 draws.  Traced in
        # this process: 0.15 MB at --jobs 2, where every replication's top
        # 501 pooled here took 5.9 MB; 0.30 MB on one CPU, where one run that
        # pooled every replication's top 501 took 6.04 MB
        cfg = ExperimentConfig.default("verify-thm4", def_replications=500, def_n=2000,
                                       n=1000, replications=1)
        # a first run caches the in-degree law's tables, whatever ran before
        run_experiment(ExperimentConfig.default("verify-thm4", def_replications=100,
                                                def_n=2000, n=1000, replications=1))
        for cpus, jobs in ((2, 2), (1, 1)):
            monkeypatch.setattr(experiments, "available_cpus", lambda: cpus)
            report, peak = traced(lambda: run_experiment(cfg, jobs=jobs))
            assert {"definition_sum", "definition_max"} <= set(report["estimates"])
            assert peak < 2**20, (cpus, jobs, peak)

    def test_an_explicit_column_definition_replication_keeps_stream_blocks(self):
        # explicit columns reduce 2^15-row blocks where the i.i.d. maxima
        # take 2^16: 2.0 MB measured, 4.0 MB in 2^16-row blocks
        params = ExperimentConfig.default(
            "verify-thm4", deps="mm:1,1", n_max=20, def_replications=100, def_n=10**5).params
        config = experiments.recursion_config_from_params(params)
        count = definition_top_count(100, 10**5, params["tau"])
        # a first replication caches the in-degree law's tables
        recursion.pair_maxima(config, 10**5, replication_seed(params["seed"], 0),
                              TailSample(count), ring=BlockRing())
        _, peak = traced(lambda: recursion.pair_maxima(
            config, 10**5, replication_seed(params["seed"], 1), TailSample(count),
            ring=BlockRing()))
        assert peak < 3 * 2**20, peak

    def test_tail_regime_needs_hill_fraction(self):
        cfg = ExperimentConfig.default("verify-thm4", regime="tail", hill_fraction=0.0)
        with pytest.raises(ConfigurationError, match="hill_fraction"):
            run_experiment(cfg)

    def test_unknown_thm4_regime_rejected(self):
        with pytest.raises(ConfigurationError, match="regime"):
            ExperimentConfig.default("verify-thm4", regime="fixed-length")


FOLLOWERS = dict(regime="followers", k=1.2, beta=3.0, deps="iid;mm:1,1", fixed_in_degree=3,
                 n=3000, replications=3)


def cut_runs(monkeypatch, size):
    """Make ``experiments._replicate`` cut runs of ``size`` replications
    (all of them when ``size`` is ``None``), whatever its workers."""
    def runs(r, workers):
        step = size or r
        return [range(lo, min(lo + step, r)) for lo in range(0, r, step)]
    monkeypatch.setattr(experiments, "_runs", runs)


class TestFailingReplication:
    @staticmethod
    def fail_in_column_draws(monkeypatch, exc_type=FloatingPointError):
        def failing(stream, out, work=None):
            raise exc_type("sampler failed")

        monkeypatch.setattr(recursion.SequenceStream, "fill", failing)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_replication_is_named_and_keeps_its_type(self, jobs, monkeypatch):
        self.fail_in_column_draws(monkeypatch)
        cfg = ExperimentConfig.default("verify-thm4", **FOLLOWERS)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="sampler failed") as info:
            run_experiment(cfg, jobs=jobs)
        seed = replication_seed(cfg.params["seed"], 0)
        assert info.value.__notes__ == [f"in verify-thm4 replication 0, seed {seed}"]
        assert threading.active_count() == before

    def test_a_replication_thread_failure_is_named(self, monkeypatch):
        # replication 1 of 3 fails on one of two threads at --jobs 1
        cfg = ExperimentConfig.default("verify-thm4", **FOLLOWERS)
        bad = replication_seed(cfg.params["seed"], 1)
        blocks = experiments.aggregate_pair_blocks

        def failing(config, n, seed, **kwargs):
            if seed == bad:
                raise FloatingPointError("pair failed")
            return blocks(config, n, seed, **kwargs)

        monkeypatch.setattr(experiments, "aggregate_pair_blocks", failing)
        monkeypatch.setattr(experiments, "available_cpus", lambda: 2)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="pair failed") as info:
            run_experiment(cfg, jobs=1)
        assert info.value.__notes__ == [f"in verify-thm4 replication 1, seed {bad}"]
        assert threading.active_count() == before

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_definition_replication_is_named(self, jobs, monkeypatch):
        def failing(*args, **kwargs):
            raise FloatingPointError("in-degree sampler failed")

        monkeypatch.setattr(recursion, "sample_power_law_int", failing)
        cfg = ExperimentConfig.default("verify-thm4", def_replications=100, def_n=2000)
        with pytest.raises(FloatingPointError) as info:
            run_experiment(cfg, jobs)
        seed = replication_seed(cfg.params["seed"], 0)
        assert info.value.__notes__ == [
            f"in verify-thm4 definition-stage replication 0, seed {seed}"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_failure_inside_a_run_names_its_replication(self, jobs, monkeypatch):
        cfg = ExperimentConfig.default("verify-thm4", def_replications=100, def_n=2000)
        bad = replication_seed(cfg.params["seed"], 9)  # the third of a run of 7
        pair_maxima = experiments.pair_maxima

        def failing(config, n, seed, calibration, **kwargs):
            if seed == bad:
                raise FloatingPointError("definition draw failed")
            return pair_maxima(config, n, seed, calibration, **kwargs)

        monkeypatch.setattr(experiments, "pair_maxima", failing)
        cut_runs(monkeypatch, 7)
        with pytest.raises(FloatingPointError, match="definition draw failed") as info:
            run_experiment(cfg, jobs)
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

        def partial(fh, *args):
            fh.write("# damping=0.5\n")
            raise OSError("disk full")

        monkeypatch.setattr(cli, "write_path_csv", partial)
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


class TestStreamedSimulate:
    @pytest.mark.parametrize("overrides", [{}, {"deps": "mm:1,1;iid"}, {"aggregate": "max"}])
    @pytest.mark.parametrize("n", [999, 1000, 1001, 2500])
    def test_path_csv_equals_the_whole_path_csv(self, n, overrides, tmp_path, monkeypatch):
        # n below, at and across multiples of 1000-row blocks
        monkeypatch.setattr(recursion, "STREAM_BLOCK_ROWS", 1000)
        params = dict(experiments.MODEL_DEFAULTS, n=n, seed=5, **overrides)
        argv = ["simulate", "--out", str(tmp_path)]
        for key in ("n", "seed", *overrides):
            argv += ["--set", f"{key}={params[key]}"]
        assert main(argv) == 0
        path = recursion.sample_aggregate(
            experiments.recursion_config_from_params(params), n, 5)
        assert (tmp_path / "path.csv").read_text() == path.to_csv()

    def test_memory_holds_no_path(self, tmp_path):
        # 9.8 MB measured; building the whole pair (four arrays of 8 MB) took
        # 36.6 MB
        rc, peak = traced(lambda: main(["simulate", "--set", "n=1000000", "--out",
                                         str(tmp_path)]))
        assert rc == 0
        assert peak < 16 * 2**20, peak


# Commands whose files the block sources write in blocks, and for a q
# threshold from only the rows that can reach it; the heavy tail cuts its
# one draw of in-degrees into some 18 blocks of capped draws: (argv, file)
ORACLE_OUTPUTS = {
    "iid": (["simulate", "--set", "n=70000"], "path.csv"),
    "heavy-tail": (["simulate", "--set", "alpha=0.5", "--set", "n_max=1000000",
                    "--set", "n=3000"], "path.csv"),
    "columns": (["simulate", "--set", "n=70000", "--set", "deps=mm:1,1;iid",
                 "--set", "aggregate=max"], "path.csv"),
    "tail": (["verify", "thm4", "--set", "regime=tail", "--set", "n=70000",
              "--set", "replications=2"], "verify-thm4.estimates.csv"),
    "preference": (["verify", "thm4", "--set", "def_replications=100", "--set", "def_n=5000",
                    "--set", "n=70000", "--set", "replications=2"],
                   "verify-thm4.estimates.csv"),
}


class TestWholePathOutputs:
    @pytest.mark.parametrize("case", sorted(ORACLE_OUTPUTS))
    def test_output_equals_the_whole_path_oracle(self, case, tmp_path):
        # the oracle builds each pair as whole paths from its expressions and
        # gives every replication's estimators whole paths
        argv, name = ORACLE_OUTPUTS[case]
        assert main(argv + ["--out", str(tmp_path)]) in (0, 1)
        text = (tmp_path / name).read_text()
        overrides = dict(argv[i + 1].split("=", 1) for i, a in enumerate(argv) if a == "--set")
        if argv[0] == "simulate":
            params = experiments.apply_overrides(experiments.MODEL_DEFAULTS, overrides,
                                                 "simulate")
            config = experiments.recursion_config_from_params(params)
            n, seed = params["n"], params["seed"]
            sums, maxes, _ = whole_pair(config, n, seed)
            values = sums if config.aggregate == "sum" else maxes
            assert text == recursion.AggregatePath(values, config, seed, n).to_csv()
            return
        params = ExperimentConfig.default("verify-thm4", **overrides).params
        header, *lines = text.splitlines()
        keys = header.split(",")[1:]
        rows = [whole_path_row(params, replication_seed_of(params, rep))
                for rep in range(params["replications"])]
        assert keys == sorted(rows[0])
        got = [[float(v) for v in line.split(",")] for line in lines]
        want = [[rep] + [row[k] for k in keys] for rep, row in enumerate(rows)]
        assert np.array(got).tobytes() == np.array(want, dtype=float).tobytes()


def written(cfg, jobs, out):
    """The report (without ``timestamp``) and the other files that ``cfg``
    writes into ``out``, run at ``jobs``."""
    report_name = f"{cfg.kind}.report.json"
    run_experiment(cfg, jobs=jobs, out_dir=str(out))
    report = json.loads((out / report_name).read_text())
    del report["timestamp"]
    return report, {p.name: p.read_bytes() for p in out.iterdir() if p.name != report_name}


# Each replicated regime with an odd replication count, so that a round of
# two threads leaves one idle: (kind, overrides)
THREAD_CASES = {
    "thm2": ("verify-thm2", dict(n=20000, replications=3)),
    "followers": ("verify-thm4", FOLLOWERS),
    "tail": ("verify-thm4", dict(regime="tail", n=5500, replications=3)),
    "preference": ("verify-thm4", dict(def_replications=100, def_n=2500, n=20000,
                                       replications=3)),
}


class TestThreadAndJobIndependence:
    @staticmethod
    def outputs(cfg, runs, tmp_path, monkeypatch):
        """What :func:`written` gives for ``cfg`` at each ``(cpus, jobs)`` of
        ``runs``, ``cpus`` the CPUs the run may use: at ``jobs = 1`` it maps
        its tasks on that many threads."""
        outputs = []
        for i, (cpus, jobs) in enumerate(runs):
            monkeypatch.setattr(experiments, "available_cpus", lambda c=cpus: c)
            outputs.append(written(cfg, jobs, tmp_path / str(i)))
        return outputs

    @pytest.mark.parametrize("case", sorted(THREAD_CASES))
    def test_replication_threads_leave_outputs_identical(self, case, tmp_path,
                                                         monkeypatch):
        # --jobs 1 on a pool of one (every replication and definition run in
        # turn, on the calling thread), two and three replication threads
        monkeypatch.setattr(recursion, "STREAM_BLOCK_ROWS", 1000)
        monkeypatch.setattr(recursion, "MAXIMA_BLOCK_ROWS", 1000)
        kind, overrides = THREAD_CASES[case]
        cfg = ExperimentConfig.default(kind, **overrides)
        got = []
        for pool in (1, 2, 3):
            monkeypatch.setattr(experiments, "available_cpus", lambda: pool)
            got.append(written(cfg, 1, tmp_path / str(pool)))
        assert got[1] == got[0] and got[2] == got[0]
        assert got[0][0]["estimates"]["replications"] == 3

    @pytest.mark.parametrize("cpus, jobs", [(1, 2), (2, 1), (2, 2)])
    def test_followers_outputs_are_identical(self, cpus, jobs, tmp_path, monkeypatch):
        cfg = ExperimentConfig.default("verify-thm4", **FOLLOWERS)
        monkeypatch.setattr(recursion, "STREAM_BLOCK_ROWS", 1000)
        ref, got = self.outputs(cfg, [(1, 1), (cpus, jobs)], tmp_path, monkeypatch)
        assert ref == got

    # the preference regime on 1000-row blocks, its definition stage in one
    # run of all 100 replications, at one CPU and one job
    PREFERENCE = dict(def_replications=100, def_n=2500, n=20000, replications=2)

    @pytest.fixture(scope="class")
    def preference_reference(self, tmp_path_factory):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(recursion, "STREAM_BLOCK_ROWS", 1000)
            mp.setattr(recursion, "MAXIMA_BLOCK_ROWS", 1000)
            cfg = ExperimentConfig.default("verify-thm4", **self.PREFERENCE)
            return self.outputs(cfg, [(1, 1)], tmp_path_factory.mktemp("ref"), mp)

    @pytest.mark.parametrize("run", [1, 7, None])
    @pytest.mark.parametrize("cpus, jobs", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2)])
    def test_definition_stage_outputs_are_identical(self, run, cpus, jobs, tmp_path,
                                                    monkeypatch, preference_reference):
        monkeypatch.setattr(recursion, "STREAM_BLOCK_ROWS", 1000)
        monkeypatch.setattr(recursion, "MAXIMA_BLOCK_ROWS", 1000)
        cut_runs(monkeypatch, run)
        cfg = ExperimentConfig.default("verify-thm4", **self.PREFERENCE)
        got = self.outputs(cfg, [(cpus, jobs)], tmp_path, monkeypatch)
        assert got == preference_reference
        assert {"definition_sum", "definition_max"} <= set(got[0][0]["estimates"])

    @pytest.mark.parametrize("cpus, jobs", [(1, 2), (2, 1), (3, 1), (2, 2)])
    def test_iid_kernel_outputs_are_identical(self, cpus, jobs, tmp_path, monkeypatch):
        # the tail regime and its paired tail comparison, both on the
        # i.i.d.-column kernel in blocks of 1000 rows
        monkeypatch.setattr(recursion, "STREAM_BLOCK_ROWS", 1000)
        for cfg in (ExperimentConfig.default("verify-thm4", regime="tail", n=5500,
                                             replications=3),
                    ExperimentConfig.default("tail-eq", n=5500, quantile=0.99)):
            ref, got = self.outputs(cfg, [(1, 1), (cpus, jobs)], tmp_path / cfg.kind,
                                    monkeypatch)
            assert ref == got


# Each replicated regime at small sizes, with thresholds low enough that
# most replications of a few hundred rows estimate rather than refuse:
# (kind, overrides).  The explicit-column cases draw moving-maxima columns.
LOW_THRESHOLDS = dict(blocks_quantile=0.9, intervals_quantile=0.8, hill_fraction=0.1,
                      blocks_exceed_prob=0.1)
STREAM_CASES = {
    "fixed-length": ("verify-thm2", {}),
    "tail": ("verify-thm4", dict(regime="tail", n_max=6)),
    "tail-explicit": ("verify-thm4", dict(regime="tail", n_max=6, deps="mm:1,1;iid")),
    "followers": ("verify-thm4", dict(regime="followers", k=1.2, beta=3.0,
                                      deps="iid;mm:1,1", fixed_in_degree=3)),
    "preference": ("verify-thm4", dict(n_max=6)),
    "preference-explicit": ("verify-thm4", dict(n_max=6, deps="mm:1,1")),
}


class TestNoDrawingThreads:
    """A run's one level of parallelism is across its tasks: no block source
    starts a thread, whatever the CPUs, and a run of one task runs on the
    calling thread."""

    @pytest.fixture(autouse=True)
    def four_cpus_and_no_threads(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)

        def refuse(thread):
            raise AssertionError(f"thread {thread.name} started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        # several blocks of each kernel
        monkeypatch.setattr(recursion, "STREAM_BLOCK_ROWS", 64)
        monkeypatch.setattr(recursion, "MAXIMA_BLOCK_ROWS", 64)

    CONFIG = dict(regime="tail", n_max=20)

    def config(self, **overrides):
        params = ExperimentConfig.default("verify-thm4", **self.CONFIG, **overrides).params
        return experiments.recursion_config_from_params(params)

    @pytest.mark.parametrize("n", [65, 320, 1000])
    def test_compare_tail_sum_max(self, n):
        rows = recursion.compare_tail_sum_max(self.config(), n, [0.95, 0.99], 7)
        assert [r.exceed_sum >= r.exceed_max for r in rows] == [True, True]

    @pytest.mark.parametrize("deps", ["iid", "mm:1,1;iid"])
    def test_write_path_csv(self, deps, tmp_path):
        config = self.config(deps=deps)
        with open(tmp_path / "path.csv", "w") as f:
            recursion.write_path_csv(f, config, 1000, 7,
                                     recursion.aggregate_pair_blocks(config, 1000, 7))
        with open(tmp_path / "path.csv") as f:
            assert len(recursion.read_path_csv(f)) == 1000

    def test_pair_maxima(self):
        calibration = TailSample(5)
        sum_max, max_max = recursion.pair_maxima(self.config(), 1000, 7, calibration)
        assert sum_max >= max_max and len(calibration.largest(5)) == 5

    def test_a_one_replication_verify(self, tmp_path, monkeypatch):
        # one replication, and on one CPU the definition stage in one run:
        # one task each
        monkeypatch.setattr(experiments, "available_cpus", lambda: 1)
        argv = ["verify", "thm4", "--set", "replications=1", "--set", "n=1000",
                "--set", "def_replications=100", "--set", "def_n=200", "--jobs", "1",
                "--out", str(tmp_path)]
        assert main(argv) in (0, 1)
        assert (tmp_path / "verify-thm4.estimates.csv").exists()


class TestStreamedReplication:
    @settings(max_examples=120, deadline=None)
    @given(case=st.sampled_from(sorted(STREAM_CASES)),
           block_rows=st.sampled_from([7, 16, 64, 250]), rows=st.integers(1001, 1300),
           offset=st.integers(-1, 1), seed=st.integers(0, 2**32 - 1), low=st.booleans())
    def test_equals_the_whole_path_estimates(self, case, block_rows, rows, offset, seed, low):
        # n below, at and just past a multiple of the block
        n = block_rows * -(-rows // block_rows) + offset
        kind, overrides = STREAM_CASES[case]
        params = dict(ExperimentConfig.default(kind, **overrides).params, n=n, seed=seed)
        if low:
            params.update((key, v) for key, v in LOW_THRESHOLDS.items() if key in params)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(recursion, "STREAM_BLOCK_ROWS", block_rows)
            got = outcome(lambda: replication_row(kind, params))
        assert got == outcome(lambda: whole_path_row(params, replication_seed_of(params, 0)))

    @pytest.mark.parametrize("case, overrides", [
        ("followers", dict(regime="followers", k=1.2, beta=3.0, deps="iid;mm:1,1",
                           fixed_in_degree=10)),
        ("tail", dict(regime="tail")),
    ])
    def test_memory_does_not_grow_with_n(self, case, overrides):
        # whole paths would add 40 bytes a row
        peaks = []
        for n in (2 * 10**5, 8 * 10**5):
            cfg = ExperimentConfig.default("verify-thm4", **overrides, n=n, replications=1)
            peaks.append(traced(lambda: run_experiment(cfg))[1])
        assert abs(peaks[1] - peaks[0]) < 2**20, peaks
        assert max(peaks) < 12 * 2**20

    def test_two_replication_threads_stay_within_their_bound(self, monkeypatch):
        # 4.4-4.8 MB measured, each replication drawing into its own ring
        monkeypatch.setattr(experiments, "available_cpus", lambda: 2)
        cfg = ExperimentConfig.default(
            "verify-thm4", regime="followers", k=1.2, beta=3.0, deps="iid;mm:1,1",
            fixed_in_degree=10, n=2 * 10**5, replications=2)
        _, peak = traced(lambda: run_experiment(cfg, jobs=1))
        assert peak < 7 * 2**20, peak

    @pytest.mark.parametrize("overrides, bound_mb", [
        # the benchmark's tail-alpha config, 3.2 follower draws a row: 3.6 MB
        # measured
        (dict(k=3.0, alpha=1.2, beta=2.0, n_max=10**4), 12),
        # 766 draws a row, in blocks of at most 2^17 draws or one row of up to
        # n_max: 7.6 MB measured, 123-135 MB when a block held all its rows'
        # draws
        (dict(alpha=0.5, n_max=10**6, n=20000), 16),
    ])
    def test_block_memory_stays_within_its_bound(self, overrides, bound_mb):
        cfg = ExperimentConfig.default("verify-thm4", regime="tail", replications=1,
                                       **overrides)
        # a first run caches the in-degree law's tables (16 MB at n_max = 10^6)
        run_experiment(cfg)
        _, peak = traced(lambda: run_experiment(cfg))
        assert peak < bound_mb * 2**20, peak


# Each replicated regime, the preference one with its q threshold, on blocks
# of 1000 rows and with fixed in-degrees, so that every block of a ring asks
# for the sizes the first full one did: (kind, overrides)
RING_CASES = {
    "fixed-length": ("verify-thm2", dict(n=20500)),
    "followers": ("verify-thm4", dict(FOLLOWERS, n=20500)),
    "tail": ("verify-thm4", dict(regime="tail", fixed_in_degree=3, n=20500)),
    "preference": ("verify-thm4", dict(fixed_in_degree=3, n=20500, def_replications=100,
                                       def_n=2000)),
}


class TestOneRingPerRun:
    @pytest.mark.parametrize("case", sorted(RING_CASES))
    def test_a_run_allocates_each_array_once_and_keeps_every_row(self, case, monkeypatch):
        # one CPU: the four replications in one run, as the definition stage
        monkeypatch.setattr(recursion, "STREAM_BLOCK_ROWS", 1000)
        monkeypatch.setattr(experiments, "available_cpus", lambda: 1)
        kind, overrides = RING_CASES[case]
        cfg = ExperimentConfig.default(kind, **dict(overrides, replications=4))
        held, allocated, q_blocks = {}, [], []

        class RecordingRing(BlockRing):
            def get(self, name, size, dtype=np.float64):
                a = super().get(name, size, dtype)
                base = a if a.base is None else a.base
                if held.get((self, name)) is not base:
                    held[self, name] = base
                    allocated.append((self, name))
                return a

        def recording_preference_blocks(*args, **kwargs):
            for block in preference_blocks(*args, **kwargs):
                q_blocks.append(block)
                yield block

        preference_blocks = experiments.preference_blocks
        monkeypatch.setattr(experiments, "BlockRing", RecordingRing)
        monkeypatch.setattr(experiments, "preference_blocks", recording_preference_blocks)
        rows = run_experiment(cfg)["estimates"]["per_replication"]
        # the kernels draw into the run's ring, and no replication grows it;
        # the preference regime's definition stage draws into a ring of its own
        rings = list(dict.fromkeys(ring for ring, _ in allocated))
        assert allocated and len(allocated) == len(set(allocated))
        assert len(rings) == (2 if case == "preference" else 1)
        # the q pass of the preference regime, 21 blocks of 1000 rows in each
        # of the 4 replications, draws into the replications' ring
        assert len(q_blocks) == (84 if case == "preference" else 0)
        assert all(np.shares_memory(block, held[rings[-1], "q"]) for block in q_blocks)
        assert [repr(row) for row in rows] == [
            repr(whole_path_row(cfg.params, replication_seed_of(cfg.params, rep)))
            for rep in range(4)]


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


class RecordingThreadPool(RecordingPool):
    """A stand-in for ``ThreadPoolExecutor`` that records the threads and the
    initializer asked for and maps in this thread."""

    workers = []
    initializers = []

    def __init__(self, max_workers, initializer=None):
        super().__init__(max_workers)
        self.initializers.append(initializer)


def seeds(params, seed, ring):
    """A replication that returns its seed."""
    return seed


class TestWorkerPool:
    @pytest.mark.parametrize("cpus, tasks, threads", [
        (2, 5, [2]), (2, 3, [2]), (8, 3, [3]), (2, 1, []), (1, 5, [])])
    def test_jobs_1_maps_on_threads_capped_at_the_cpus(self, cpus, tasks, threads,
                                                       monkeypatch):
        monkeypatch.setattr(RecordingPool, "workers", [])
        monkeypatch.setattr(RecordingThreadPool, "workers", [])
        monkeypatch.setattr(RecordingThreadPool, "initializers", [])
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(experiments, "ThreadPoolExecutor", RecordingThreadPool)
        monkeypatch.setattr(experiments, "available_cpus", lambda: cpus)
        assert experiments._replicate(seeds, "verify-thm2", {"seed": 1}, tasks, 0, 1) == \
            [replication_seed(1, rep) for rep in range(tasks)]
        assert RecordingThreadPool.workers == threads and RecordingPool.workers == []
        # a task thread runs its kernels as the calling thread would
        assert RecordingThreadPool.initializers == [None] * len(threads)

    @pytest.mark.parametrize("jobs, tasks, workers", [
        (8, 2, [2]), (8, 20, [8]), (2, 5, [2]), (8, 1, []), (1, 5, []), (4, 0, [])])
    def test_the_pool_is_capped_at_the_tasks(self, jobs, tasks, workers, monkeypatch):
        monkeypatch.setattr(RecordingPool, "workers", [])
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
        assert experiments._replicate(seeds, "verify-thm2", {"seed": 1}, tasks, 0, jobs) == \
            [replication_seed(1, rep) for rep in range(tasks)]
        assert RecordingPool.workers == workers

    def test_verify_starts_no_more_workers_than_replications(self, monkeypatch, tmp_path):
        monkeypatch.setattr(RecordingPool, "workers", [])
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
        cfg = ExperimentConfig.default("verify-thm2", n=20000, replications=2)
        run_experiment(cfg, jobs=8, out_dir=str(tmp_path))
        assert RecordingPool.workers == [2]

    @staticmethod
    def runs(r, jobs, monkeypatch):
        """The runs, in task order, that ``_replicate`` cuts ``r``
        replications into at ``jobs``, each mapped in this thread."""
        monkeypatch.setattr(RecordingPool, "workers", [])
        monkeypatch.setattr(RecordingThreadPool, "workers", [])
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(experiments, "ThreadPoolExecutor", RecordingThreadPool)
        got = []
        monkeypatch.setattr(experiments, "_run", lambda task: got.append(task[3]) or [])
        experiments._replicate(seeds, "verify-thm4", {"seed": 1}, r, 0, jobs)
        return got

    # on two CPUs: --jobs 1 maps the runs on two threads, as --jobs 2 on two
    # processes
    @pytest.mark.parametrize("jobs, runs", [(1, 8), (2, 8), (4, 16)])
    def test_definition_runs_are_contiguous(self, jobs, runs, monkeypatch):
        monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0, 1})
        got = self.runs(500, jobs, monkeypatch)
        assert len(got) in (runs, runs + 1)
        assert [rep for run in got for rep in run] == list(range(500))

    def test_one_cpu_takes_one_definition_run(self, monkeypatch):
        monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0})
        assert self.runs(500, 1, monkeypatch) == [range(500)]


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

    @pytest.mark.parametrize("method", ["hill", "blocks", "intervals", "cluster"])
    def test_non_finite_path_value_exits_2(self, tmp_path, capsys, method):
        path_csv = tmp_path / "path.csv"
        values = np.linspace(1.0, 50.0, 2000).tolist()
        values[1200:1200] = [float("inf")] * 40 + [float("nan")] * 3
        path_csv.write_text("# n=2043\nvalue\n" + "".join(f"{v!r}\n" for v in values))
        out = tmp_path / "out"
        rc = main(["estimate", "--input", str(path_csv), "--method", method,
                   "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path_csv}: value 1201 is inf, not a finite number\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("n, block_length", [(10**6, None), (40000, 2000), (40000, None)])
    def test_blocks_default_quantile_leaves_a_block_below(self, tmp_path, capsys, n,
                                                          block_length):
        # 0.99 at 10^6 rows (blocks of 1000) or at blocks of 2000 puts about
        # 10 or 20 exceedances in every block, so the default moves to the
        # first of 0.999, 0.9999, ... that works; where 0.99 works it stays
        assert main(["simulate", "--set", f"n={n}", "--seed", "5", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        argv = ["estimate", "--input", str(tmp_path / "path.csv"), "--method", "blocks"]
        if block_length:
            argv += ["--block-length", str(block_length)]
        explicit = {}
        for level in ("0.99", "0.999", "0.9999"):
            rc = main(argv + ["--quantile", level])
            explicit[level] = rc, capsys.readouterr().out
        assert main(argv) == 0
        default = capsys.readouterr().out
        first = next(level for level, (rc, _) in explicit.items() if rc == 0)
        assert default == explicit[first][1]
        assert (first == "0.99") == ((n, block_length) == (40000, None))

    @pytest.mark.parametrize("method", ["intervals", "cluster"])
    def test_other_theta_estimators_keep_the_099_default(self, tmp_path, capsys, method):
        assert main(["simulate", "--set", "n=40000", "--seed", "5", "--out", str(tmp_path)]) == 0
        argv = ["estimate", "--input", str(tmp_path / "path.csv"), "--method", method]
        capsys.readouterr()
        assert main(argv) == 0
        default = capsys.readouterr().out
        assert main(argv + ["--quantile", "0.99"]) == 0
        assert capsys.readouterr().out == default

    def test_cluster_reports_the_run_gap_it_used(self, tmp_path, capsys):
        # ceil(log 5000) = 9 by default, as blocks reports its block length
        assert main(["simulate", "--set", "n=5000", "--seed", "5", "--out", str(tmp_path)]) == 0
        argv = ["estimate", "--input", str(tmp_path / "path.csv"), "--method", "cluster"]
        capsys.readouterr()
        for extra, gap in (([], 9), (["--run-gap", "4"], 4)):
            assert main(argv + extra) == 0
            assert json.loads(capsys.readouterr().out)["run_gap"] == gap

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
        refuse_sampling(monkeypatch)
        out = tmp_path / "out"
        argv = ["verify", "thm4", "--set", "n=20000", "--set", "replications=2"]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv + ["--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_jobs_0_exits_2_before_sampling(self, tmp_path, capsys, monkeypatch):
        # thm4's definition stage sizes its chunks by jobs, so 0 must not reach it
        refuse_sampling(monkeypatch)
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

    def test_invalid_config_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "write_path_csv", refuse_to_sample)
        assert main(["verify", "thm2", "--set", "nonsense=1"]) == 2
        assert main(["simulate", "--set", "coupling=adversarial"]) == 2
        assert "error: unknown parameter 'coupling' for simulate" in capsys.readouterr().err

    def test_graph_rejects_config_and_set(self, tmp_path, capsys):
        cfg_file = tmp_path / "graph.cfg"
        cfg_file.write_text("nodes=50\n")
        for extra in (["--set", "bogus=1"], ["--config", str(cfg_file)]):
            out = tmp_path / "out"
            with pytest.raises(SystemExit) as exit_:
                main(["graph", "gen", "--nodes", "50", "--out", str(out)] + extra)
            assert exit_.value.code == 2
            assert "error: unrecognized arguments" in capsys.readouterr().err
            assert not out.exists()

    # each command declares only the flags it reads (graph's --config and
    # --set above)
    # (the input file need not exist: the parser exits first)
    @pytest.mark.parametrize("argv, flag", [
        (["estimate", "--input", "path.csv", "--method", "hill"], ["--config", "x.cfg"]),
        (["estimate", "--input", "path.csv", "--method", "hill"], ["--set", "bogus=1"]),
        (["estimate", "--input", "path.csv", "--method", "hill"], ["--seed", "1"]),
        (["estimate", "--input", "path.csv", "--method", "hill"], ["--jobs", "1"]),
        (["simulate", "--set", "n=2000"], ["--jobs", "0"]),
        (["tail-eq", "--set", "n=2000"], ["--jobs", "2"]),
        (["graph", "gen", "--nodes", "50"], ["--jobs", "1"]),
    ])
    def test_a_flag_the_command_does_not_read_exits_2(self, argv, flag, tmp_path, capsys,
                                                      monkeypatch):
        refuse_sampling(monkeypatch)
        monkeypatch.setattr(cli, "write_path_csv", refuse_to_sample)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_:
            main(argv + flag + ["--out", str(out)])
        assert exit_.value.code == 2
        assert f"error: unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--seed", "-1"],
        ["simulate", "--set", "seed=-1"],
        ["verify", "thm2", "--seed", "-1"],
        ["verify", "thm4", "--set", "seed=-1", "--jobs", "2"],
        ["tail-eq", "--seed", "-1"],
        ["graph", "gen", "--nodes", "50", "--seed", "-1"],
    ])
    def test_a_negative_seed_exits_2_before_writing(self, argv, tmp_path, capsys,
                                                    monkeypatch):
        # before any worker starts, and before simulate writes its header
        refuse_sampling(monkeypatch)
        monkeypatch.setattr(cli, "write_path_csv", refuse_to_sample)
        out = tmp_path / "out"
        for extra in ([], ["--out", str(out)]):
            assert main(argv + extra) == 2
            captured = capsys.readouterr()
            assert "error: seed must be >= 0, got -1" in captured.err
            assert captured.out == ""
            assert not out.exists()

    def test_a_refused_simulate_makes_no_directory(self, tmp_path, capsys):
        # a negative seed: test_a_negative_seed_exits_2_before_writing
        out = tmp_path / "out"
        assert main(["simulate", "--set", "n=0", "--out", str(out)]) == 2
        assert "error: path length must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("action", ["gen", "pagerank", "maxlinear", "hitting"])
    def test_graph_refuses_a_negative_seed_for_every_action(self, action, tmp_path, capsys):
        # before the edge list is read, so the missing file goes unnamed, and
        # before anything is written
        out = tmp_path / "out"
        argv = ["graph", action, "--seed", "-5", "--graph", str(tmp_path / "missing.edges"),
                "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be >= 0, got -5\n"
        assert captured.out == ""
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
        pred = predict_min_rule(*component_arrays(report["config"]))
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
        # estimator settings, refused before sampling rather than in a worker
        (["verify", "thm2", "--jobs", "2", "--set", "blocks_quantile=1.0"], "blocks_quantile"),
        (["verify", "thm4", "--set", "regime=followers", "--set", "k=1.2", "--set", "beta=3.0",
          "--set", "intervals_quantile=0"], "intervals_quantile"),
        (["verify", "thm4", "--set", "blocks_exceed_prob=0"], "blocks_exceed_prob"),
        (["verify", "thm4", "--set", "regime=tail", "--set", "hill_fraction=1.5"],
         "hill_fraction"),
        (["verify", "thm1", "--set", "hill_fraction=1"], "hill_fraction"),
        (["verify", "thm2", "--set", "tol_theta=-1"], "tol_theta"),
        (["verify", "thm4", "--set", "tol_pair=-0.5"], "tol_pair"),
    ])
    @pytest.mark.parametrize("via", ["set", "config"])
    def test_bad_value_exits_2_naming_the_key(self, monkeypatch, tmp_path, capsys, argv, key,
                                              via):
        refuse_sampling(monkeypatch)
        if via == "config":
            cfg_file = tmp_path / "bad.cfg"
            cfg_file.write_text(argv[-1] + "\n")
            argv = argv[:-2] + ["--config", str(cfg_file)]
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: parameter '{key}' must be " in err
        assert " replication " not in err  # no note of a failing replication
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
