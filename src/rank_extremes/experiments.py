"""Verification experiments: configure, simulate, estimate, compare, report.

Each experiment kind simulates one of the model settings, runs the
estimator battery, compares the medians against the closed-form
predictions and produces a JSON-serializable report whose pass/fail flags
are determined solely by the tolerances recorded in the configuration.

Configurations are flat ``key=value`` text (diff-friendly); every value is
an int, float or string.  The timestamp is the only non-deterministic
report field.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .errors import ConfigurationError
from .estimators import (
    ThresholdRule,
    blocks_theta,
    definition_theta,
    hill,
    intervals_theta,
    nearest_rank_quantile,
)
from .heavytail import (
    DependenceSpec,
    InDegreeSpec,
    SequenceSpec,
    TailSpec,
    sample_pareto,
)
from .recursion import (
    RecursionConfig,
    compare_tail_sum_max,
    sample_aggregate_pair,
    sample_weighted_pair,
)
from .theory import (
    ComponentSpec,
    Component,
    predict_equal_tails,
    predict_min_rule,
)
from . import graphrank
from .rng import STREAMS, child_rng, replication_seed

# ---------------------------------------------------------------------------
# Dependence-spec string codec ("iid" or "mm:a0,a1,..."; columns ';'-joined)

def parse_dep(code: str) -> DependenceSpec:
    code = code.strip()
    if code == "iid":
        return DependenceSpec.iid()
    if code.startswith("mm:"):
        coeffs = tuple(float(a) for a in code[3:].split(","))
        return DependenceSpec.moving_maxima(*coeffs)
    raise ConfigurationError(f"cannot parse dependence spec '{code}'")


def parse_deps(codes: str) -> tuple[DependenceSpec, ...]:
    return tuple(parse_dep(code) for code in codes.split(";"))


def format_dep(dep: DependenceSpec) -> str:
    if dep.is_iid:
        return "iid"
    return "mm:" + ",".join(f"{a:g}" for a in dep.coeffs)


def _floats(csv_text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in csv_text.split(","))


# ---------------------------------------------------------------------------
# Experiment configuration

VERIFY_THM1 = "verify-thm1"
VERIFY_THM2 = "verify-thm2"
VERIFY_THM3 = "verify-thm3"
VERIFY_THM4 = "verify-thm4"
TAIL_EQUIVALENCE = "tail-eq"
GRAPH_DEMO = "graph-demo"

_FIXED_LENGTH_COMMON = {
    "n": 1_000_000,
    "replications": 50,
    "seed": 20260824,
    "blocks_quantile": 0.999,
    "intervals_quantile": 0.995,
    "hill_fraction": 0.01,
    "tol_theta": 0.08,
    "tol_k_rel": 0.0,
    "tol_pair": 0.06,
}

DEFAULTS: dict[str, dict] = {
    # Unique minimal tail index: the heaviest component dictates (k, theta).
    VERIFY_THM1: {
        **_FIXED_LENGTH_COMMON,
        "ks": "1.5,2.5,3",
        "weights": "1,1,1",
        "scales": "1,1,1",
        "deps": "mm:1,1;iid;iid",
        # smaller Hill fraction: the lighter components contaminate the
        # top 1% when the minimal index is not well separated
        "hill_fraction": 0.002,
        "tol_k_rel": 0.10,
    },
    # Equal tails: theta(z) is the weighted average of component thetas.
    VERIFY_THM2: {
        **_FIXED_LENGTH_COMMON,
        "ks": "2,2,2",
        "weights": "1,1,2",
        "scales": "1,1,1",
        "deps": "iid;mm:1,1;mm:1,1,1,1",
    },
    # Unequal tails, sum and max share (k_m, theta_m).
    VERIFY_THM3: {
        **_FIXED_LENGTH_COMMON,
        "ks": "1,2,3",
        "weights": "1,1,1",
        "scales": "1,1,1",
        "deps": "mm:1,1;iid;iid",
        "tol_k_rel": 0.10,
    },
    VERIFY_THM4: {
        "regime": "preference",
        "n": 1_000_000,
        "replications": 50,
        "seed": 20260824,
        "damping": 0.5,
        "k": 3.0,
        "alpha": 2.0,
        "beta": 1.0,
        "n_max": 100,
        "deps": "iid",
        "fixed_in_degree": -1,  # -1: draw N_t from the power law
        "def_replications": 500,
        "def_n": 100_000,
        "tau": 1.0,
        "blocks_exceed_prob": 0.001,
        "blocks_quantile": 0.999,
        "intervals_quantile": 0.995,
        "hill_fraction": 0.01,
        "tol_theta": 0.08,
        "tol_k_rel": 0.0,
        "tol_pair": 0.06,
    },
    TAIL_EQUIVALENCE: {
        "n": 10_000_000,
        "seed": 20260824,
        "damping": 0.5,
        "k": 1.2,
        "alpha": 2.0,
        "beta": 3.0,
        "n_max": 10_000,
        "quantile": 0.9999,
        "ratio_low": 0.85,
        "ratio_high": 1.15,
    },
    GRAPH_DEMO: {
        "nodes": 10_000,
        "alpha": 1.5,
        # tail index of the personalization weights; a heavy-tailed q is
        # what makes the sum and max recursions rank the same hubs highly
        # (with uniform q the max-linear fixed point is the constant floor)
        "q_beta": 1.0,
        "damping": 0.85,
        "seed": 20260824,
        "trials": 200,
        "top_ps": "0.001,0.01,0.1",
        "top_overlap_min": 5,
        "tol": 1e-10,
    },
}

KINDS = tuple(DEFAULTS)

# Long-form alias accepted anywhere a kind name is read.
_KIND_ALIASES = {"tail-equivalence": TAIL_EQUIVALENCE}


@dataclass(frozen=True)
class ExperimentConfig:
    """Experiment kind plus its flat parameter map."""

    kind: str
    params: dict

    def __post_init__(self):
        if self.kind not in DEFAULTS:
            raise ConfigurationError(f"unknown experiment kind '{self.kind}'")
        unknown = set(self.params) - set(DEFAULTS[self.kind])
        if unknown:
            raise ConfigurationError(
                f"unknown parameters for {self.kind}: {sorted(unknown)}"
            )
        if self.params.get("replications", 1) < 1:
            raise ConfigurationError("replications must be >= 1")
        if self.params.get("n", 1000) < 1000:
            raise ConfigurationError("path length n must be >= 1000")

    @classmethod
    def default(cls, kind: str, **overrides) -> "ExperimentConfig":
        kind = _KIND_ALIASES.get(kind, kind)
        if kind not in DEFAULTS:
            raise ConfigurationError(f"unknown experiment kind '{kind}'")
        params = dict(DEFAULTS[kind])
        for key, value in overrides.items():
            if key not in params:
                raise ConfigurationError(f"unknown parameter '{key}' for {kind}")
            params[key] = _coerce(kind, key, value)
        return cls(kind, params)

    def serialize(self) -> str:
        lines = [f"kind={self.kind}"]
        for key in sorted(self.params):
            lines.append(f"{key}={self.params[key]}")
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "ExperimentConfig":
        kind = None
        raw: dict[str, str] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigurationError(f"line {lineno}: expected key=value, got '{line}'")
            key, value = line.split("=", 1)
            key, value = key.strip(), value.strip()
            if key == "kind":
                kind = value
            else:
                raw[key] = value
        if kind is None:
            raise ConfigurationError("config is missing the 'kind' key")
        return cls.default(kind, **raw)

    def hash(self) -> str:
        return hashlib.sha256(self.serialize().encode()).hexdigest()


def _coerce(kind: str, key: str, value):
    """Coerce an override to the type of the default for (kind, key)."""
    template = DEFAULTS[kind][key]
    if isinstance(value, str) and not isinstance(template, str):
        value = float(value) if isinstance(template, float) else int(value)
    if isinstance(template, int) and not isinstance(template, bool):
        return int(value)
    if isinstance(template, float):
        return float(value)
    return str(value)


# ---------------------------------------------------------------------------
# Estimator battery helpers

def _theta_battery(path: np.ndarray, blocks_q: float, intervals_q: float) -> dict:
    u_blocks = nearest_rank_quantile(path, blocks_q)
    u_intervals = nearest_rank_quantile(path, intervals_q)
    return {
        "blocks": blocks_theta(path, u_blocks).estimate,
        "intervals": intervals_theta(path, u_intervals).estimate,
    }


def _median(rows: list[dict], key: str) -> float:
    return float(np.median([row[key] for row in rows]))


def _spread(rows: list[dict], key: str) -> float:
    values = np.array([row[key] for row in rows])
    return float(np.quantile(values, 0.9) - np.quantile(values, 0.1))


def _check(name: str, value: float, target: float, tol: float, relative=False) -> dict:
    err = abs(value - target)
    bound = tol * abs(target) if relative else tol
    return {
        "name": name,
        "value": value,
        "target": target,
        "tol": tol,
        "relative": relative,
        "passed": bool(err <= bound),
    }


def _interval_check(name: str, value: float, low: float, high: float) -> dict:
    return {
        "name": name,
        "value": value,
        "target": [low, high],
        "tol": None,
        "relative": False,
        "passed": bool(low <= value <= high),
    }


# ---------------------------------------------------------------------------
# Fixed-length experiments: weighted mixtures of stationary components

def _fixed_length_components(params) -> list[tuple[float, SequenceSpec]]:
    ks = _floats(params["ks"])
    zs = _floats(params["weights"])
    cs = _floats(params["scales"])
    deps = parse_deps(params["deps"])
    if not (len(ks) == len(zs) == len(cs) == len(deps)):
        raise ConfigurationError("ks, weights, scales and deps must have equal length")
    return [
        (z, SequenceSpec(TailSpec(k, c), dep))
        for k, z, c, dep in zip(ks, zs, cs, deps)
    ]


def _fixed_length_rep(args) -> dict:
    params, rep = args
    components = _fixed_length_components(params)
    seed = replication_seed(params["seed"], rep)
    sum_path, max_path = sample_weighted_pair(components, params["n"], seed)
    out = {}
    for label, path in (("sum", sum_path), ("max", max_path)):
        battery = _theta_battery(path, params["blocks_quantile"], params["intervals_quantile"])
        out[f"blocks_{label}"] = battery["blocks"]
        out[f"intervals_{label}"] = battery["intervals"]
        if params["hill_fraction"] > 0:
            rule = ThresholdRule.top_fraction(params["hill_fraction"])
            out[f"hill_{label}"] = hill(path, rule).estimate
    out["pair_diff_blocks"] = abs(out["blocks_sum"] - out["blocks_max"])
    out["pair_diff_intervals"] = abs(out["intervals_sum"] - out["intervals_max"])
    return out


def _run_fixed_length(cfg: ExperimentConfig, jobs: int) -> dict:
    params = cfg.params
    components = _fixed_length_components(params)
    spec = ComponentSpec(
        tuple(
            Component(z=z, tail=seq.tail, theta=seq.theta)
            for z, seq in components
        )
    )
    ks = spec.ks
    if np.all(ks == ks[0]):
        pred = predict_equal_tails(spec)
    else:
        pred = predict_min_rule(spec)

    rows = _map_reps(_fixed_length_rep, params, params["replications"], jobs)

    estimates = _collect_estimates(rows)
    checks = []
    for est in ("blocks", "intervals"):
        for label in ("sum", "max"):
            checks.append(
                _check(
                    f"{est}_{label}_theta",
                    estimates[f"{est}_{label}_median"],
                    pred.theta_of_z,
                    params["tol_theta"],
                )
            )
    if params["tol_k_rel"] > 0 and params["hill_fraction"] > 0:
        for label in ("sum", "max"):
            checks.append(
                _check(
                    f"hill_{label}_tail_index",
                    estimates[f"hill_{label}_median"],
                    pred.k_of_z,
                    params["tol_k_rel"],
                    relative=True,
                )
            )
    checks.append(
        _check("sum_max_agreement", estimates["pair_diff_blocks_median"], 0.0,
               params["tol_pair"])
    )
    predicted = {
        "k_of_z": pred.k_of_z,
        "theta_of_z": pred.theta_of_z,
        "c_of_z": pred.c_of_z,
        "regime": pred.regime,
    }
    return _make_report(cfg, predicted, estimates, checks)


# ---------------------------------------------------------------------------
# Random-length experiments: damped aggregates over a random in-degree

def recursion_config_from_params(params) -> RecursionConfig:
    fixed = params.get("fixed_in_degree", -1)
    return RecursionConfig(
        damping=params["damping"],
        in_degree=InDegreeSpec(alpha=params["alpha"], n_max=params["n_max"]),
        follower_tail=TailSpec(params["k"]),
        preference_tail=TailSpec(params["beta"]),
        follower_deps=parse_deps(params["deps"]),
        aggregate=params.get("aggregate", "sum"),
        fixed_in_degree=None if fixed < 0 else int(fixed),
        coupling=params.get("coupling", "independent"),
    )


def _thm4_blocks_rep(args) -> dict:
    """Preference-dominant blocks estimates, threshold tied to q."""
    params, rep = args
    config = recursion_config_from_params(params)
    seed = replication_seed(params["seed"], 100_000 + rep)
    pair = sample_aggregate_pair(config, params["n"], seed)
    p = params["blocks_exceed_prob"]
    u = nearest_rank_quantile(pair.preference, 1.0 - p)
    p_emp = float(np.count_nonzero(pair.preference > u)) / params["n"]
    out = {
        "blocks_sum": blocks_theta(pair.sum_values, u, exceed_prob=p_emp).estimate,
        "blocks_max": blocks_theta(pair.max_values, u, exceed_prob=p_emp).estimate,
    }
    out["pair_diff_blocks"] = abs(out["blocks_sum"] - out["blocks_max"])
    return out


def _run_thm4_preference(cfg: ExperimentConfig, jobs: int) -> dict:
    params = cfg.params
    config = recursion_config_from_params(params)
    if params["k"] < params["beta"]:
        raise ConfigurationError("preference regime requires k >= beta")
    theta_pred = config.z_star ** params["beta"]
    k_pred = min(params["k"], params["alpha"], params["beta"])

    # Definition-based stage: replicated paths, threshold calibrated on the
    # i.i.d. preference draws (the defining normalization of this regime).
    r, n_def = params["def_replications"], params["def_n"]
    sum_paths = np.empty((r, n_def))
    max_paths = np.empty((r, n_def))
    q_paths = np.empty((r, n_def))
    for rep in range(r):
        pair = sample_aggregate_pair(config, n_def, replication_seed(params["seed"], rep))
        sum_paths[rep] = pair.sum_values
        max_paths[rep] = pair.max_values
        q_paths[rep] = pair.preference
    def_sum = definition_theta(sum_paths, params["tau"], calibration_paths=q_paths)
    def_max = definition_theta(max_paths, params["tau"], calibration_paths=q_paths)
    del sum_paths, max_paths, q_paths

    rows = _map_reps(_thm4_blocks_rep, params, params["replications"], jobs)
    estimates = _collect_estimates(rows)
    estimates["definition_sum"] = def_sum.estimate
    estimates["definition_max"] = def_max.estimate

    tol = params["tol_theta"]
    checks = [
        _check("definition_sum_theta", def_sum.estimate, theta_pred, tol),
        _check("definition_max_theta", def_max.estimate, theta_pred, tol),
        _check("blocks_sum_theta", estimates["blocks_sum_median"], theta_pred, tol),
        _check("blocks_max_theta", estimates["blocks_max_median"], theta_pred, tol),
        _check("sum_max_agreement", estimates["pair_diff_blocks_median"], 0.0,
               params["tol_pair"]),
    ]
    predicted = {
        "k_of_z": k_pred,
        "theta_of_z": theta_pred,
        "regime": "PREFERENCE_DOMINATES",
    }
    return _make_report(cfg, predicted, estimates, checks)


def _thm4_followers_rep(args) -> dict:
    params, rep = args
    config = recursion_config_from_params(params)
    seed = replication_seed(params["seed"], rep)
    pair = sample_aggregate_pair(config, params["n"], seed)
    out = {}
    for label, path in (("sum", pair.sum_values), ("max", pair.max_values)):
        battery = _theta_battery(path, params["blocks_quantile"], params["intervals_quantile"])
        out[f"blocks_{label}"] = battery["blocks"]
        out[f"intervals_{label}"] = battery["intervals"]
    out["pair_diff_blocks"] = abs(out["blocks_sum"] - out["blocks_max"])
    return out


def _run_thm4_followers(cfg: ExperimentConfig, jobs: int) -> dict:
    params = cfg.params
    config = recursion_config_from_params(params)
    if not params["k"] < params["beta"]:
        raise ConfigurationError("followers regime requires k < beta")
    pred = config.theory_prediction(truncation=params["n_max"])

    rows = _map_reps(_thm4_followers_rep, params, params["replications"], jobs)
    estimates = _collect_estimates(rows)
    tol = params["tol_theta"]
    checks = [
        _check("blocks_sum_theta", estimates["blocks_sum_median"], pred.theta_of_z, tol),
        _check("blocks_max_theta", estimates["blocks_max_median"], pred.theta_of_z, tol),
        _check("intervals_sum_theta", estimates["intervals_sum_median"],
               pred.theta_of_z, tol),
        _check("intervals_max_theta", estimates["intervals_max_median"],
               pred.theta_of_z, tol),
        _check("sum_max_agreement", estimates["pair_diff_blocks_median"], 0.0,
               params["tol_pair"]),
    ]
    predicted = {
        "k_of_z": pred.k_of_z,
        "theta_of_z": pred.theta_of_z,
        "c_of_z": pred.c_of_z,
        "regime": pred.regime,
        "scale_converged": pred.scale_converged,
    }
    return _make_report(cfg, predicted, estimates, checks)


def _thm4_tail_rep(args) -> dict:
    params, rep = args
    config = recursion_config_from_params(params)
    seed = replication_seed(params["seed"], rep)
    pair = sample_aggregate_pair(config, params["n"], seed)
    rule = ThresholdRule.top_fraction(params["hill_fraction"])
    u_sum = nearest_rank_quantile(pair.sum_values, params["blocks_quantile"])
    u_max = nearest_rank_quantile(pair.max_values, params["blocks_quantile"])
    b_sum = blocks_theta(pair.sum_values, u_sum).estimate
    b_max = blocks_theta(pair.max_values, u_max).estimate
    return {
        "hill_sum": hill(pair.sum_values, rule).estimate,
        "hill_max": hill(pair.max_values, rule).estimate,
        "blocks_sum": b_sum,
        "blocks_max": b_max,
        "pair_diff_blocks": abs(b_sum - b_max),
    }


def _run_thm4_tail(cfg: ExperimentConfig, jobs: int) -> dict:
    params = cfg.params
    k_pred = min(params["k"], params["alpha"], params["beta"])
    rows = _map_reps(_thm4_tail_rep, params, params["replications"], jobs)
    estimates = _collect_estimates(rows)
    tol = params["tol_k_rel"] if params["tol_k_rel"] > 0 else 0.15
    checks = [
        _check("hill_sum_tail_index", estimates["hill_sum_median"], k_pred, tol,
               relative=True),
        _check("sum_max_agreement", estimates["pair_diff_blocks_median"], 0.0,
               params["tol_pair"]),
    ]
    predicted = {"k_of_z": k_pred, "regime": "TAIL_RULE"}
    return _make_report(cfg, predicted, estimates, checks)


def _run_thm4(cfg: ExperimentConfig, jobs: int) -> dict:
    regime = cfg.params["regime"]
    if regime == "preference":
        return _run_thm4_preference(cfg, jobs)
    if regime == "followers":
        return _run_thm4_followers(cfg, jobs)
    if regime == "tail":
        return _run_thm4_tail(cfg, jobs)
    raise ConfigurationError(f"unknown thm4 regime '{regime}'")


# ---------------------------------------------------------------------------
# Tail equivalence and graph demo

def _run_tail_equivalence(cfg: ExperimentConfig, jobs: int) -> dict:
    params = cfg.params
    config = recursion_config_from_params(
        {**params, "deps": "iid", "fixed_in_degree": -1}
    )
    rows = compare_tail_sum_max(config, params["n"], [params["quantile"]],
                                params["seed"])
    row = rows[0]
    estimates = {
        "quantile": row.quantile,
        "threshold": row.threshold,
        "exceed_sum": row.exceed_sum,
        "exceed_max": row.exceed_max,
        "ratio": row.ratio,
        "ci_low": row.ci_low,
        "ci_high": row.ci_high,
        "reliable": row.reliable,
    }
    checks = [
        _interval_check("sum_max_tail_ratio", row.ratio,
                        params["ratio_low"], params["ratio_high"]),
        _interval_check("reliable_exceedances", float(min(row.exceed_sum, row.exceed_max)),
                        50.0, float("inf")),
    ]
    predicted = {"ratio_limit": 1.0}
    return _make_report(cfg, predicted, estimates, checks)


def _run_graph_demo(cfg: ExperimentConfig, jobs: int) -> dict:
    params = cfg.params
    n = params["nodes"]
    g = graphrank.gen_power_law_graph(n, params["alpha"], params["seed"])
    q_rng = child_rng(params["seed"], STREAMS["preference"])
    q_raw = sample_pareto(TailSpec(params["q_beta"]), n, params["seed"], _rng=q_rng)
    q = q_raw / q_raw.sum()
    pr = graphrank.pagerank(g, params["damping"], q)
    ml = graphrank.max_linear_rank(g, params["damping"], q)
    overlap = len(
        set(pr.top_nodes(10).tolist()) & set(ml.top_nodes(10).tolist())
    )
    means = []
    for top_p in _floats(params["top_ps"]):
        ht = graphrank.random_walk_hitting(
            g, params["damping"], pr, top_p, params["trials"], params["seed"], q=q
        )
        means.append(ht.mean)
    monotone = all(a >= b for a, b in zip(means, means[1:]))
    # Ratios near the tolerance floor are rounding noise, not contraction.
    ratios = [
        b / a for a, b in zip(pr.residuals, pr.residuals[1:]) if a > 100 * 1e-12
    ]
    estimates = {
        "pagerank_iterations": pr.iterations,
        "pagerank_sum": float(pr.scores.sum()),
        "max_residual_ratio": max(ratios) if ratios else 0.0,
        "top10_overlap": overlap,
        "hitting_means": means,
    }
    checks = [
        _check("pagerank_normalization", float(pr.scores.sum()), 1.0, params["tol"]),
        _interval_check("residual_contraction", estimates["max_residual_ratio"],
                        0.0, params["damping"] * (1 + 1e-9)),
        _interval_check("top10_overlap", float(overlap),
                        float(params["top_overlap_min"]), 10.0),
        _interval_check("hitting_monotone", 1.0 if monotone else 0.0, 1.0, 1.0),
    ]
    predicted = {"rank_sum": 1.0}
    return _make_report(cfg, predicted, estimates, checks)


# ---------------------------------------------------------------------------
# Shared plumbing

def _map_reps(worker, params: dict, replications: int, jobs: int) -> list[dict]:
    args = [(params, rep) for rep in range(replications)]
    if jobs <= 1:
        return [worker(a) for a in args]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        # ex.map preserves argument order, so reports are reproducible
        # regardless of worker scheduling.
        return list(pool.map(worker, args))


def _collect_estimates(rows: list[dict]) -> dict:
    estimates: dict = {"replications": len(rows)}
    for key in rows[0]:
        estimates[f"{key}_median"] = _median(rows, key)
        estimates[f"{key}_spread"] = _spread(rows, key)
    estimates["per_replication"] = rows
    return estimates


def _make_report(cfg: ExperimentConfig, predicted: dict, estimates: dict,
                 checks: list[dict]) -> dict:
    return {
        "kind": cfg.kind,
        "config": {k: cfg.params[k] for k in sorted(cfg.params)},
        "config_hash": cfg.hash(),
        "seed": cfg.params["seed"],
        "predicted": predicted,
        "estimates": estimates,
        "checks": checks,
        "passed": bool(all(c["passed"] for c in checks)),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _finite_or_null(value):
    """``value`` with every non-finite float replaced by ``None``, so the
    written report is strict JSON (``NaN`` and ``Infinity`` are not): an
    open interval bound ``inf`` and an undefined ratio ``nan`` become
    ``null``."""
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_finite_or_null(v) for v in value]
    if isinstance(value, float) and not np.isfinite(value):
        return None
    return value


_RUNNERS = {
    VERIFY_THM1: _run_fixed_length,
    VERIFY_THM2: _run_fixed_length,
    VERIFY_THM3: _run_fixed_length,
    VERIFY_THM4: _run_thm4,
    TAIL_EQUIVALENCE: _run_tail_equivalence,
    GRAPH_DEMO: _run_graph_demo,
}

# Documented top-level report fields (schema stability contract).
REPORT_FIELDS = (
    "kind", "config", "config_hash", "seed", "predicted", "estimates",
    "checks", "passed", "timestamp",
)


def run_experiment(cfg: ExperimentConfig, jobs: int = 1, out_dir: str | None = None) -> dict:
    """Run one experiment and optionally write its report files.

    Writes ``<kind>.report.json`` and, when per-replication rows exist,
    ``<kind>.estimates.csv`` under ``out_dir``.  The report file is strict
    JSON, with ``null`` for every non-finite value.  Partial outputs are
    removed if anything fails mid-run.
    """
    report = _RUNNERS[cfg.kind](cfg, jobs)
    if out_dir is not None:
        written = []
        try:
            os.makedirs(out_dir, exist_ok=True)
            report_path = os.path.join(out_dir, f"{cfg.kind}.report.json")
            with open(report_path, "w") as fh:
                json.dump(_finite_or_null(report), fh, indent=2, allow_nan=False)
                fh.write("\n")
            written.append(report_path)
            rows = report["estimates"].get("per_replication")
            if rows:
                csv_path = os.path.join(out_dir, f"{cfg.kind}.estimates.csv")
                keys = sorted(rows[0])
                with open(csv_path, "w") as fh:
                    fh.write("replication," + ",".join(keys) + "\n")
                    for i, row in enumerate(rows):
                        fh.write(str(i) + "," + ",".join(f"{row[k]:.17g}" for k in keys) + "\n")
                written.append(csv_path)
        except Exception:
            for path in written:
                try:
                    os.remove(path)
                except OSError:
                    pass
            raise
    return report
