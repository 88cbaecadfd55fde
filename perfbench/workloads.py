"""The benchmark's workloads: operations on the program and their checks.

Each workload is a list of operations that one round runs in order.  An
operation calls into the program only through ``rank_extremes.cli.main``
or a public library function (the timed part), then checks the outputs
against :mod:`checks` (untimed).  Every round of a run repeats the same
operations on the same inputs, which are made from the run's seed.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import rank_extremes.cli as cli
from rank_extremes import graphrank, recursion
from rank_extremes.heavytail import InDegreeSpec, TailSpec

import checks

# Replications per verify call.  At these counts the medians sit several
# standard deviations of the replication spread inside each tolerance (the
# per-replication spreads are given in README.md), so no check fails on any
# seed while every round stays short enough to repeat within a run.
MIXTURE_REPLICATIONS = 2
FOLLOWERS_REPLICATIONS = 2
PREFERENCE_REPLICATIONS = 4
PREFERENCE_JOBS = 2

PATH_N = 1_000_000
GRAPH_NODES = 100_000
GRAPH_ALPHA = 1.5
GRAPH_DAMPING = 0.85
# simulate's default damping c = 0.5 and Pareto q >= 1 bound every value of
# the sum aggregate below by (1 - c) * 1.
PATH_FLOOR = 0.5
HILL_FRACTION = 0.01
TOP_P = 0.01
# simulate_tbt: fixed in-degree and constant preference, so the root value
# has a closed form; 100 roots * (3^10 - 1) / 2 nodes = 2.95e6 tree nodes.
TBT = dict(c=0.5, d=3, depth=9, q=1.0, n_roots=100)

THETA_KEYS = ("blocks_sum", "blocks_max", "intervals_sum", "intervals_max")

# name -> (verify argv, closed-form predictions, (median key, target, tol,
# relative) checks).  Tolerances are those of tests/test_acceptance.py.
MIXTURE = {
    "thm2": (["verify", "thm2"],
             {"k_of_z": 2.0, "theta_of_z": checks.THETA_THM2},
             [(k, checks.THETA_THM2, 0.08, False) for k in THETA_KEYS]),
    "thm3": (["verify", "thm3"],
             {"k_of_z": checks.K_THM3, "theta_of_z": checks.THETA_THM3},
             [(k, checks.THETA_THM3, 0.08, False) for k in THETA_KEYS]
             + [("hill_sum", checks.K_THM3, 0.10, True),
                ("hill_max", checks.K_THM3, 0.10, True)]),
    "tail-k": (["verify", "thm4", "--set", "regime=tail", "--set", "k=1.2",
                "--set", "alpha=2.0", "--set", "beta=3.0", "--set", "tol_k_rel=0.15"],
               {"k_of_z": checks.K_TAIL}, [("hill_sum", checks.K_TAIL, 0.15, True)]),
    "tail-alpha": (["verify", "thm4", "--set", "regime=tail", "--set", "k=3.0",
                    "--set", "alpha=1.2", "--set", "beta=2.0", "--set", "n_max=10000",
                    "--set", "tol_k_rel=0.15"],
                   {"k_of_z": checks.K_TAIL}, [("hill_sum", checks.K_TAIL, 0.15, True)]),
    "tail-beta": (["verify", "thm4", "--set", "regime=tail", "--set", "k=3.0",
                   "--set", "alpha=2.0", "--set", "beta=1.2", "--set", "tol_k_rel=0.15"],
                  {"k_of_z": checks.K_TAIL}, [("hill_sum", checks.K_TAIL, 0.15, True)]),
}

FOLLOWERS = (["verify", "thm4", "--set", "regime=followers", "--set", "k=1.2",
              "--set", "beta=3.0", "--set", "deps=iid;mm:1,1",
              "--set", "fixed_in_degree=100", "--set", "tol_theta=0.10"],
             {"k_of_z": 1.2, "theta_of_z": checks.THETA_FOLLOWERS},
             [(k, checks.THETA_FOLLOWERS, 0.10, False) for k in THETA_KEYS])

PREFERENCE = (["verify", "thm4", "--set", "damping=0.5", "--set", "tol_theta=0.08"],
              {"k_of_z": 1.0, "theta_of_z": checks.THETA_PREFERENCE},
              [(k, checks.THETA_PREFERENCE, 0.08, False)
               for k in ("blocks_sum", "blocks_max")])

STRICT_JSON = "strict-json:"


@dataclass
class Op:
    """One operation: ``run`` is timed; ``prepare``, ``check`` and ``digest``
    are not.

    ``known_fault`` is set on an operation that a known program fault makes
    fail in every round: it is the prefix of that fault's failure message.
    """

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    digest: Callable[[Any], list[bytes]] = lambda result: []
    prepare: Callable[[], None] | None = None
    known_fault: str | None = None


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str


def call_cli(argv: list[str]) -> CliResult:
    """``rank_extremes.cli.main(argv)`` in-process, output captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refusing the arguments
            code = exc.code
    return CliResult(code, out.getvalue(), err.getvalue())


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _exit_failures(result: CliResult) -> list[str]:
    if result.code != 0:
        return [f"exit code {result.code}: {result.stderr.strip()[-300:]}"]
    return []


def _report_bytes(path: str) -> bytes:
    """A report's content without its wall-clock ``timestamp``."""
    report = json.loads(_read(path))
    report.pop("timestamp", None)
    return json.dumps(report, sort_keys=True).encode()


def _file_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _verify_op(name, spec, seed, jobs, replications, workdir) -> Op:
    argv, predicted, medians = spec
    out = os.path.join(workdir, name)
    kind = "verify-" + argv[1]
    report_path = os.path.join(out, f"{kind}.report.json")
    csv_path = os.path.join(out, f"{kind}.estimates.csv")
    full = argv + ["--set", f"replications={replications}", "--seed", str(seed),
                   "--jobs", str(jobs), "--out", out]

    def check(result: CliResult) -> list[str]:
        fails = _exit_failures(result)
        text = _read(report_path)
        fails += checks.strict_json_failures(text, report_path)
        fails += checks.verify_report_failures(json.loads(text), predicted, medians,
                                               replications)
        return fails + checks.estimates_csv_failures(_read(csv_path), replications)

    return Op(name, lambda: call_cli(full), check,
              lambda result: [_report_bytes(report_path), _file_bytes(csv_path)])


def _mixture(seed, workdir) -> list[Op]:
    return [_verify_op(name, spec, seed, 1, MIXTURE_REPLICATIONS, workdir)
            for name, spec in MIXTURE.items()]


def _followers(seed, workdir) -> list[Op]:
    return [_verify_op("followers", FOLLOWERS, seed, 1, FOLLOWERS_REPLICATIONS, workdir)]


def _preference(seed, workdir) -> list[Op]:
    return [_verify_op("pref-05", PREFERENCE, seed, PREFERENCE_JOBS,
                       PREFERENCE_REPLICATIONS, workdir)]


def _pipeline(seed, workdir) -> list[Op]:
    """A user session: simulate and estimate, the graph commands, tail-eq
    and report, and the library calls that no command reaches."""
    w = workdir
    path_csv = os.path.join(w, "path.csv")
    edges_path = os.path.join(w, "graph.edges")
    state: dict = {}  # outputs parsed by one operation's check for the next
    reference: dict = {}  # computed once per run, since every round repeats

    def simulate_check(result):
        meta, values = checks.read_path_csv(_read(path_csv))
        state["path"] = values
        return _exit_failures(result) + checks.path_failures(meta, values, PATH_N, PATH_FLOOR)

    ops = [Op("simulate",
              lambda: call_cli(["simulate", "--set", f"n={PATH_N}", "--seed", str(seed),
                                "--out", w]),
              simulate_check, lambda result: [_file_bytes(path_csv)])]

    estimates = (("hill", []), ("blocks", ["--quantile", "0.999"]),
                 ("intervals", ["--quantile", "0.995"]), ("cluster", []))
    for method, extra in estimates:
        target = os.path.join(w, f"estimate-{method}.json")

        def est_check(result, method=method, target=target):
            fails = _exit_failures(result)
            text = _read(target)
            fails += checks.strict_json_failures(text, target)
            est = json.loads(text)
            if json.loads(result.stdout.strip().splitlines()[-1]) != est:
                fails.append(f"{method}: printed estimate differs from {target}")
            fails += checks.exceedance_failures(state["path"], est)
            if method == "hill":
                fails += checks.hill_failures(state["path"], est, HILL_FRACTION)
            return fails

        ops.append(Op(f"estimate-{method}",
                      lambda m=method, e=extra: call_cli(
                          ["estimate", "--input", path_csv, "--method", m,
                           "--fraction", str(HILL_FRACTION), "--out", w] + e),
                      est_check, lambda result, t=target: [_file_bytes(t)]))

    def gen_check(result):
        src, dst = checks.read_edges(_read(edges_path))
        state["edges"] = (src, dst)
        if "edges" not in reference:
            g = graphrank.gen_power_law_graph(GRAPH_NODES, GRAPH_ALPHA, seed)
            reference["edges"] = (g.src, g.dst)
        return _exit_failures(result) + checks.edge_failures(src, dst, *reference["edges"])

    ops.append(Op("graph-gen",
                  lambda: call_cli(["graph", "gen", "--nodes", str(GRAPH_NODES),
                                    "--alpha", str(GRAPH_ALPHA), "--seed", str(seed),
                                    "--out", w]),
                  gen_check, lambda result: [_file_bytes(edges_path)]))

    uniform_q = np.full(GRAPH_NODES, 1.0 / GRAPH_NODES)
    graph_args = ["--graph", edges_path, "--damping", str(GRAPH_DAMPING), "--out", w]

    def rank_check(result, name, failures):
        ids, scores = checks.read_rank_csv(_read(os.path.join(w, name)))
        src, dst = state["edges"]
        return _exit_failures(result) + failures(src, dst, ids, scores)

    ops.append(Op("graph-pagerank",
                  lambda: call_cli(["graph", "pagerank"] + graph_args),
                  lambda result: rank_check(
                      result, "pagerank.csv",
                      lambda s, d, ids, r: checks.pagerank_failures(
                          s, d, GRAPH_NODES, GRAPH_DAMPING, uniform_q, ids, r)),
                  lambda result: [_file_bytes(os.path.join(w, "pagerank.csv"))]))
    ops.append(Op("graph-maxlinear",
                  lambda: call_cli(["graph", "maxlinear"] + graph_args),
                  lambda result: rank_check(
                      result, "maxlinear.csv",
                      lambda s, d, ids, r: checks.max_linear_failures(
                          s, d, GRAPH_NODES, GRAPH_DAMPING, uniform_q, r)),
                  lambda result: [_file_bytes(os.path.join(w, "maxlinear.csv"))]))

    def hitting_check(result):
        fails = _exit_failures(result)
        return fails + checks.hitting_failures(
            checks.load_strict_json(result.stdout.strip().splitlines()[-1]),
            GRAPH_NODES, TOP_P)

    ops.append(Op("graph-hitting",
                  lambda: call_cli(["graph", "hitting", "--top-p", str(TOP_P),
                                    "--seed", str(seed)] + graph_args),
                  hitting_check,
                  lambda result: [result.stdout.strip().splitlines()[-1].encode()]))

    # Known fault: tail-eq gives its reliable_exceedances check the target
    # [50, inf] and run_experiment writes with json.dump's allow_nan=True, so
    # the report holds Infinity and fails a strict parse.  tail-eq runs its
    # default configuration and seed, independent of the run's seed, so this
    # operation fails in every round of every run.
    tail_dir = os.path.join(w, "tail-eq")
    tail_report = os.path.join(tail_dir, "tail-eq.report.json")

    def tail_check(result):
        text = _read(tail_report)
        fails = _exit_failures(result) + checks.tail_eq_failures(json.loads(text))
        return fails + checks.strict_json_failures(text, "tail-eq.report.json")

    ops.append(Op("tail-eq", lambda: call_cli(["tail-eq", "--out", tail_dir]),
                  tail_check, lambda result: [_report_bytes(tail_report)],
                  known_fault=STRICT_JSON))

    def report_check(result):
        fails = _exit_failures(result)
        if "overall: PASS" not in result.stdout:
            fails.append("report does not print 'overall: PASS'")
        return fails

    ops.append(Op("report", lambda: call_cli(["report", "--input", tail_report]),
                  report_check))

    # max_linear_rank with a heavy-tailed (Pareto, index 1) preference vector:
    # the command always passes a uniform q, whose fixed point is the floor.
    rng = np.random.default_rng([seed, 1])
    q_raw = 1.0 / (1.0 - rng.random(GRAPH_NODES))
    heavy_q = q_raw / q_raw.sum()

    def ml_prepare():
        src, dst = state["edges"]
        state["graph"] = graphrank.DirectedGraph.from_edges(GRAPH_NODES, src, dst)

    def ml_check(rank):
        src, dst = state["edges"]
        return checks.max_linear_failures(src, dst, GRAPH_NODES, GRAPH_DAMPING,
                                          heavy_q, rank.scores)

    ops.append(Op("max-linear-heavy-q",
                  lambda: graphrank.max_linear_rank(state["graph"], GRAPH_DAMPING, heavy_q),
                  ml_check, lambda rank: [rank.scores.tobytes()], prepare=ml_prepare))

    tbt_config = recursion.RecursionConfig(
        damping=TBT["c"], in_degree=InDegreeSpec(alpha=2.0, n_max=TBT["d"]),
        follower_tail=TailSpec(2.0), preference_tail=TailSpec(3.0),
        fixed_in_degree=TBT["d"])
    ops.append(Op("simulate-tbt",
                  lambda: recursion.simulate_tbt(tbt_config, TBT["depth"], TBT["n_roots"],
                                                 seed, constant_preference=TBT["q"]),
                  lambda sample: checks.tbt_failures(
                      sample.root_values, TBT["c"], TBT["d"], TBT["depth"], TBT["q"],
                      TBT["n_roots"]),
                  lambda sample: [sample.root_values.tobytes()]))
    return ops


def build(workload: str, seed: int, workdir: str) -> list[Op]:
    """The operations of one round of ``workload`` for ``seed``."""
    if workload == "mixture":
        return _mixture(seed, workdir)
    if workload == "followers":
        return _followers(seed, workdir)
    if workload == "preference":
        return _preference(seed, workdir)
    if workload == "pipeline":
        return _pipeline(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def digest(parts: list[bytes]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()
