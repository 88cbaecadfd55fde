"""Experiment configs, reports, and the command-line entry points."""

import json
import os

import numpy as np
import pytest

from rank_extremes.cli import main
from rank_extremes.errors import ConfigurationError
from rank_extremes.experiments import (
    DEFAULTS,
    KINDS,
    REPORT_FIELDS,
    ExperimentConfig,
    format_dep,
    parse_dep,
    run_experiment,
)
from rank_extremes.heavytail import DependenceSpec
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


class TestDepCodec:
    def test_round_trip(self):
        for code in ("iid", "mm:1,1", "mm:2,1,0.5"):
            assert format_dep(parse_dep(code)) == code

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
        assert (tmp_path / "verify-thm2.estimates.csv").exists()

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
