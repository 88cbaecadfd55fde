"""Command-line experiment runner.

Subcommands::

    simulate                      generate an aggregate path, write CSV
    estimate                      run one estimator on a path CSV
    verify {thm1,thm2,thm3,thm4}  Monte-Carlo verification vs. theory
    tail-eq                       paired sum/max tail-ratio experiment
    graph {gen,pagerank,maxlinear,hitting}   deterministic graph demos
    report                        summarize a report JSON, exit per pass

Shared flags, each on the commands that read it: ``--config`` (flat
key=value file) and ``--set key=value`` (repeatable overrides) on
``simulate``, ``verify`` and ``tail-eq``; ``--seed`` on those and ``graph``
(read by ``gen`` and ``hitting``, refused when negative by every action);
``--jobs`` on ``verify``; ``--out`` on all but ``report``.  The
``RANK_EXTREMES_OUT`` environment variable overrides ``--out``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import experiments, graphrank
from .errors import ConfigurationError, ConvergenceError, DataError, RankExtremesError
from .estimators import (
    EstimateReport,
    ThresholdRule,
    blocks_theta,
    hill,
    intervals_theta,
    mean_cluster_size,
    nearest_rank_quantile,
)
from .recursion import aggregate_pair_blocks, read_path_csv, write_path_csv
from .textio import atomic_write


def _collect_overrides(args, kind: str | None = None) -> dict:
    """Raw values from ``--config``, then ``--set``, then ``--seed``; for an
    experiment ``kind``, a ``kind=`` key must name that kind."""
    overrides = {}
    if args.config:
        with open(args.config) as fh:
            overrides.update(experiments.parse_kv(fh.read(), args.config))
    for item in args.set or []:
        key, value = experiments.split_kv(item, "--set")
        overrides[key] = value
    if args.seed is not None:
        overrides["seed"] = args.seed
    if kind is not None:
        named = overrides.pop("kind", kind)
        if named != kind:
            raise ConfigurationError(
                f"the config names kind '{named}', but this command runs {kind}")
    return overrides


def _out_dir(args) -> str | None:
    return os.environ.get("RANK_EXTREMES_OUT") or args.out


def _write_file(out: str, name: str, write) -> str:
    """``write(fh)`` into ``out/name``, written atomically; returns the path."""
    os.makedirs(out, exist_ok=True)
    target = os.path.join(out, name)
    with atomic_write(target) as fh:
        write(fh)
    return target


def _cmd_simulate(args) -> int:
    params = experiments.apply_overrides(
        experiments.MODEL_DEFAULTS, _collect_overrides(args), "simulate")
    config = experiments.recursion_config_from_params(params)
    n, seed = params["n"], params["seed"]
    # asked for first: the call refuses a bad n or seed before any file is made
    blocks = aggregate_pair_blocks(config, n, seed)

    def write(fileobj):
        write_path_csv(fileobj, config, n, seed, blocks)

    out = _out_dir(args)
    if out:
        print(f"wrote {_write_file(out, 'path.csv', write)}")
    else:
        write(sys.stdout)
    return 0


def _cmd_estimate(args) -> int:
    with open(args.input) as fh:
        path = read_path_csv(fh)
    finite = np.isfinite(path)
    if not finite.all():  # a threshold or estimate of inf or nan is no JSON number
        first = int(np.argmin(finite))
        raise DataError(f"{args.input}: value {first + 1} is {float(path[first])}, "
                        "not a finite number")
    if args.method == "hill":
        if args.top_count is not None:
            rule = ThresholdRule.top_count(args.top_count)
        else:
            rule = ThresholdRule.top_fraction(args.fraction)
        report = hill(path, rule)
    else:
        # the theta estimators share one --quantile threshold
        level = args.quantile
        if level is None:
            level = _blocks_level(path, args.block_length) if args.method == "blocks" else 0.99
        u = nearest_rank_quantile(path, level)
        if args.method == "blocks":
            report = blocks_theta(path, u, args.block_length)
        elif args.method == "intervals":
            report = intervals_theta(path, u)
        else:  # cluster; argparse restricts the choices
            stats = mean_cluster_size(path, u, args.run_gap)
            report = EstimateReport(
                estimate=stats.theta_runs,
                method="runs",
                n=len(path),
                threshold=u,
                exceedances=stats.exceedance_count,
                run_gap=args.run_gap,
                details={"clusters": stats.cluster_count, "mean_size": stats.mean_size},
            )
    out = _out_dir(args)
    if out:
        target = _write_file(out, f"estimate-{args.method}.json",
                             lambda fh: fh.write(report.to_json() + "\n"))
        print(f"wrote {target}")
    print(report.to_json())
    return 0


def _blocks_level(path: np.ndarray, b: int | None) -> float:
    """The default ``--quantile`` of ``estimate --method blocks``: the first
    of 0.99, 0.999, 0.9999, ... whose nearest-rank quantile leaves some
    block of ``b`` values (``isqrt(n)`` by default) at or below it, so 0.99
    wherever it leaves one.  At 0.99 and 10^6 values a block of 1 000 holds
    about 10 exceedances, and every block may exceed the threshold."""
    n = len(path)
    b = math.isqrt(n) if b is None else b
    nines = 2
    if 1 <= b <= n // 10:  # else blocks_theta refuses the block length
        ends = n // b * b
        lowest = np.maximum.reduceat(path[:ends], np.arange(0, ends, b)).min()
        while nearest_rank_quantile(path, 1.0 - 10.0**-nines) < lowest:
            nines += 1
    return 1.0 - 10.0**-nines


def _print_checks(report: dict) -> int:
    """Print every check and the verdict; return the exit code (0 pass, 1 fail)."""
    for check in report["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        # a written report holds null where the value was not finite
        value = "null" if check["value"] is None else f"{check['value']:.6g}"
        print(f"[{status}] {check['name']}: value={value} "
              f"target={check['target']} tol={check['tol']}")
    print(f"overall: {'PASS' if report['passed'] else 'FAIL'}")
    return 0 if report["passed"] else 1


def _cmd_experiment(args) -> int:
    kind = f"verify-{args.theorem}" if args.command == "verify" else experiments.TAIL_EQUIVALENCE
    cfg = experiments.ExperimentConfig.default(kind, **_collect_overrides(args, kind))
    report = experiments.run_experiment(cfg, jobs=args.jobs, out_dir=_out_dir(args))
    return _print_checks(report)


def _cmd_graph(args) -> int:
    seed = args.seed or 0  # read by gen and hitting alone
    if seed < 0:  # refused for every action, before anything is read or written
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    if args.action != "gen" and not args.graph:
        raise ConfigurationError(f"graph {args.action} needs --graph EDGE_LIST")
    out = _out_dir(args) or "."
    if args.action == "gen":
        g = graphrank.gen_power_law_graph(args.nodes, args.alpha, seed)
        target = _write_file(out, "graph.edges", g.write_edge_list)
        print(f"wrote {target} ({g.n} nodes, {g.edge_count} edges)")
        return 0
    with open(args.graph) as fh:
        g = graphrank.DirectedGraph.read_edge_list(fh)
    q = np.full(g.n, 1.0 / g.n)
    if args.action == "pagerank":
        rv = graphrank.pagerank(g, args.damping, q)
        name = "pagerank.csv"
    elif args.action == "maxlinear":
        rv = graphrank.max_linear_rank(g, args.damping, q)
        name = "maxlinear.csv"
    else:  # hitting
        rv = graphrank.pagerank(g, args.damping, q)
        ht = graphrank.random_walk_hitting(
            g, args.damping, rv, args.top_p, args.trials, seed, q=q
        )
        print(json.dumps({
            "mean": ht.mean, "median": ht.median, "target_size": ht.target_size,
        }))
        return 0
    target = _write_file(out, name, rv.write_csv)
    print(f"wrote {target} (iterations={rv.iterations}, residual={rv.residual:.3g})")
    return 0


def _cmd_report(args) -> int:
    with open(args.input) as fh:
        try:
            report = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8 text
            print(f"invalid report, not JSON: {args.input}: {exc}", file=sys.stderr)
            return 2
    problem = _report_shape_problem(report)
    if problem:
        print(f"invalid report, {problem}: {args.input}", file=sys.stderr)
        return 2
    return _print_checks(report)


_CHECK_KEYS = ("name", "value", "target", "tol", "passed")


def _report_shape_problem(report) -> str | None:
    """What keeps ``report`` from being printed, or None: it must be an
    object with every report field, and ``checks`` a list of objects with
    a numeric or null ``value``."""
    if not isinstance(report, dict):
        return f"expected a JSON object, got {type(report).__name__}"
    missing = [f for f in experiments.REPORT_FIELDS if f not in report]
    if missing:
        return f"missing fields: {missing}"
    checks = report["checks"]
    if not isinstance(checks, list):
        return f"'checks' must be a list, got {type(checks).__name__}"
    for i, check in enumerate(checks):
        if not isinstance(check, dict) or any(k not in check for k in _CHECK_KEYS):
            return f"check {i} must be an object with keys {list(_CHECK_KEYS)}"
        value = check["value"]
        if value is not None and (isinstance(value, bool) or not isinstance(value, (int, float))):
            return f"check {i} value must be a number or null, got {value!r}"
    return None


def _add_common(parser: argparse.ArgumentParser, *, config: bool = True,
                seed: bool = True) -> None:
    """``--out``, and ``--config``/``--set`` and ``--seed`` unless switched off."""
    if config:
        parser.add_argument("--config", help="flat key=value config file")
        parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                            help="override one config key (repeatable)")
    if seed:
        parser.add_argument("--seed", type=int, help="root RNG seed (>= 0)")
    parser.add_argument("--out", help="output directory (RANK_EXTREMES_OUT overrides)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rank-extremes",
        description="Heavy-tailed rank recursion simulation and verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate an aggregate path CSV")
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="run one estimator on a path CSV")
    _add_common(p, config=False, seed=False)
    p.add_argument("--input", required=True, help="path CSV from 'simulate'")
    p.add_argument("--method", required=True,
                   choices=["hill", "blocks", "intervals", "cluster"])
    p.add_argument("--quantile", type=float,
                   help="threshold quantile for theta estimators (default 0.99; "
                        "blocks: the first of 0.99, 0.999, ... that leaves a block "
                        "below the threshold)")
    p.add_argument("--fraction", type=float, default=0.01,
                   help="hill: top fraction of order statistics")
    p.add_argument("--top-count", type=int, help="hill: top order-statistic count")
    p.add_argument("--block-length", type=int, help="blocks: block length")
    p.add_argument("--run-gap", type=int, help="cluster: runs declustering gap")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("verify", help="Monte-Carlo verification experiment")
    p.add_argument("theorem", choices=["thm1", "thm2", "thm3", "thm4"])
    _add_common(p)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the replications; at 1, "
                        "they run on one thread per CPU")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("tail-eq", help="paired sum/max tail-ratio experiment")
    _add_common(p)
    p.set_defaults(func=_cmd_experiment, jobs=1)  # one task: the paired path

    p = sub.add_parser("graph", help="deterministic graph computations")
    p.add_argument("action", choices=["gen", "pagerank", "maxlinear", "hitting"])
    _add_common(p, config=False)
    p.add_argument("--nodes", type=int, default=1000)
    p.add_argument("--alpha", type=float, default=1.5)
    p.add_argument("--graph", help="edge-list file for rank/walk actions")
    p.add_argument("--damping", type=float, default=0.85)
    p.add_argument("--top-p", type=float, default=0.01)
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("report", help="summarize a report JSON")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RankExtremesError, OSError) as exc:
        # bad input, or an input file that is missing or unreadable; a note
        # names the replication that raised it, and a solver that did not
        # converge gives its last residual and iteration count
        solver = []
        if isinstance(exc, ConvergenceError):
            solver = [f"{key}: {getattr(exc, key)!r}" for key in ("residual", "iterations")
                      if getattr(exc, key) is not None]
        print(f"error: {exc}", *solver, *getattr(exc, "__notes__", ()), sep="\n  ",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
