"""Verification experiments: configure, simulate, estimate, compare, report.

Each experiment kind simulates one of the model settings, runs the
estimator battery, compares the medians against the closed-form
predictions and produces a JSON-serializable report whose pass/fail flags
are determined solely by the tolerances recorded in the configuration.

Configurations are flat ``key=value`` text (diff-friendly); every value is
an int, float or string.  The timestamp is the only non-deterministic
report field.  This module owns every configuration default: ``DEFAULTS``
per experiment kind and ``MODEL_DEFAULTS`` for ``simulate``.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from typing import Callable

import numpy as np

from .errors import ConfigurationError, ParameterError, ResourceError
from .estimators import (
    ThresholdRule,
    blocks_theta,
    definition_theta_from_maxima,
    definition_top_count,
    hill,
    intervals_theta,
    nearest_rank_quantile,
    upper_order_statistics,
)
from .heavytail import (
    DependenceSpec,
    InDegreeSpec,
    SequenceSpec,
    TailSpec,
)
from .recursion import (
    MIN_RELIABLE_EXCEEDANCES,
    BlockRing,
    RecursionConfig,
    compare_tail_sum_max,
    pair_maxima,
    sample_aggregate_pair,
    sample_weighted_pair,
)
from .theory import (
    FOLLOWERS_DOMINATE,
    PREFERENCE_DOMINATES,
    ComponentSpec,
    Component,
    predict_equal_tails,
    predict_min_rule,
    predict_random_length,
)
from .rng import replication_seed
from .textio import atomic_write, write_rows

# ---------------------------------------------------------------------------
# Dependence-spec string parser ("iid" or "mm:a0,a1,..."; columns ';'-joined)

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


def _floats(csv_text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in csv_text.split(","))


# ---------------------------------------------------------------------------
# Experiment configuration

VERIFY_THM1 = "verify-thm1"
VERIFY_THM2 = "verify-thm2"
VERIFY_THM3 = "verify-thm3"
VERIFY_THM4 = "verify-thm4"
TAIL_EQUIVALENCE = "tail-eq"

# Regimes of the replicated kinds: verify-thm1..3 are fixed-length
# mixtures, verify-thm4 runs the regime its ``regime`` key names.
FIXED_LENGTH = "fixed-length"
THM4_REGIMES = ("preference", "followers", "tail")

# Shared by every replicated kind (verify-thm1..4).
_REPLICATED_COMMON = {
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
        **_REPLICATED_COMMON,
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
        **_REPLICATED_COMMON,
        "ks": "2,2,2",
        "weights": "1,1,2",
        "scales": "1,1,1",
        "deps": "iid;mm:1,1;mm:1,1,1,1",
    },
    # Unequal tails, sum and max share (k_m, theta_m).
    VERIFY_THM3: {
        **_REPLICATED_COMMON,
        "ks": "1,2,3",
        "weights": "1,1,1",
        "scales": "1,1,1",
        "deps": "mm:1,1;iid;iid",
        "tol_k_rel": 0.10,
    },
    VERIFY_THM4: {
        **_REPLICATED_COMMON,
        "regime": "preference",
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
}

# Parameters of ``simulate``: one aggregate path, of any length n >= 1.
MODEL_DEFAULTS = {
    "damping": 0.5,
    "k": 2.0,
    "alpha": 2.0,
    "beta": 3.0,
    "n_max": 100,
    "deps": "iid",
    "fixed_in_degree": -1,
    "aggregate": "sum",
    "coupling": "independent",
    "n": 100_000,
    "seed": 20260824,
}

KINDS = tuple(DEFAULTS)

# Long-form alias accepted anywhere a kind name is read.
_KIND_ALIASES = {"tail-equivalence": TAIL_EQUIVALENCE}


def canonical_kind(kind: str) -> str:
    """``kind`` with a long-form alias resolved; an unknown kind is refused."""
    kind = _KIND_ALIASES.get(kind, kind)
    if kind not in DEFAULTS:
        raise ConfigurationError(f"unknown experiment kind '{kind}'")
    return kind


def split_kv(item: str, where: str) -> tuple[str, str]:
    """``(key, value)`` of one ``key=value`` item, both stripped."""
    if "=" not in item:
        raise ConfigurationError(f"{where}: expected key=value, got '{item}'")
    key, value = item.split("=", 1)
    return key.strip(), value.strip()


def parse_kv(text: str, source: str) -> dict[str, str]:
    """Raw values of flat ``key=value`` text; blank and ``#`` lines are
    skipped, and a repeated key keeps its last value."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            key, value = split_kv(line, f"{source}:{lineno}")
            out[key] = value
    return out


# List-valued keys: the parser that reads each, and what it expects.
_NUMBERS = (_floats, "a comma-separated list of numbers")
_LIST_KEYS = {"ks": _NUMBERS, "weights": _NUMBERS, "scales": _NUMBERS,
              "deps": (parse_deps, "';'-joined dependence specs ('iid' or 'mm:a0,a1,...')")}
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string"}


def apply_overrides(defaults: dict, overrides: dict, owner: str) -> dict:
    """``defaults`` with each override coerced to the type of its default.
    An unknown key, or a value that does not parse as that type (or list),
    is a ``ConfigurationError`` naming the key, raised before any sampling."""
    params = dict(defaults)
    for key, value in overrides.items():
        if key not in defaults:
            raise ConfigurationError(f"unknown parameter '{key}' for {owner}")
        cast = type(defaults[key])
        parse, expected = _LIST_KEYS.get(key, (None, _TYPE_NAMES[cast]))
        try:
            params[key] = cast(value)
            if parse is not None:
                parse(params[key])
        except (ValueError, OverflowError):
            raise ConfigurationError(
                f"parameter '{key}' must be {expected}, got '{value}'") from None
    return params


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
        if self.kind == VERIFY_THM4 and self.params.get("regime") not in THM4_REGIMES:
            raise ConfigurationError(f"unknown thm4 regime '{self.params.get('regime')}'")

    @classmethod
    def default(cls, kind: str, **overrides) -> "ExperimentConfig":
        kind = canonical_kind(kind)
        return cls(kind, apply_overrides(DEFAULTS[kind], overrides, kind))

    def serialize(self) -> str:
        lines = [f"kind={self.kind}"]
        for key in sorted(self.params):
            lines.append(f"{key}={self.params[key]}")
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "ExperimentConfig":
        raw = parse_kv(text, "config")
        if "kind" not in raw:
            raise ConfigurationError("config is missing the 'kind' key")
        return cls.default(raw.pop("kind"), **raw)

    def hash(self) -> str:
        return hashlib.sha256(self.serialize().encode()).hexdigest()


# ---------------------------------------------------------------------------
# Report helpers

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
# Replicated kinds: one table of regimes, one worker, one runner

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


def _predict(regime: str, params) -> dict:
    """Closed-form predictions for ``regime``, made before any sampling."""
    if regime == FIXED_LENGTH:
        # weighted mixtures of stationary components: the equal-tails
        # average when every component shares one tail index, else the min rule
        spec = ComponentSpec(
            tuple(
                Component(z=z, tail=seq.tail, theta=seq.theta)
                for z, seq in _fixed_length_components(params)
            )
        )
        ks = spec.ks
        if np.all(ks == ks[0]):
            pred = predict_equal_tails(spec)
        else:
            pred = predict_min_rule(spec)
        predicted = asdict(pred)
        del predicted["scale_converged"]  # set only by the random-length series
        return predicted
    if regime == "tail":
        return {"k_of_z": min(params["k"], params["alpha"], params["beta"]),
                "regime": "TAIL_RULE"}
    # n_max follower columns of weight damping, dependence specs cycled
    config = recursion_config_from_params(params)
    columns = [SequenceSpec(config.follower_tail, config.column_dep(j))
               for j in range(1, params["n_max"] + 1)]
    followers = ComponentSpec(tuple(
        Component(z=config.damping, tail=seq.tail, theta=seq.theta) for seq in columns))
    pred = predict_random_length(followers, alpha=params["alpha"], beta=params["beta"],
                                 z_star=config.z_star, truncation=params["n_max"])
    if regime == "followers":
        if pred.regime != FOLLOWERS_DOMINATE:
            raise ConfigurationError("followers regime requires k < beta")
        return asdict(pred)
    if pred.regime != PREFERENCE_DOMINATES:
        raise ConfigurationError("preference regime requires k >= beta")
    return {"k_of_z": pred.k_of_z, "theta_of_z": pred.theta_of_z, "regime": pred.regime}


# Hard cap on the preference draws the definition stage pools in the main
# process: r replications hand in their top ``count`` values each, so the
# stage holds r * min(count, def_n) float64 values (10^7 are 80 MB).
DEFINITION_POOL_BUDGET = 10**7


def _definition_count(params) -> int:
    """``count`` of the definition stage: how many of its largest preference
    draws each replication hands in.  Refuses too few replications, a
    ``tau`` outside ``(0, def_n)`` or a pool over its budget, before any
    sampling."""
    r, n_def, tau = params["def_replications"], params["def_n"], params["tau"]
    try:
        count = definition_top_count(r, n_def, tau)
    except ParameterError as exc:
        raise ConfigurationError(
            f"definition stage (def_replications={r}, def_n={n_def}, tau={tau}): {exc}"
        ) from None
    pooled = r * min(count, n_def)
    if pooled > DEFINITION_POOL_BUDGET:
        raise ResourceError(
            f"definition stage would pool {pooled:.3g} preference draws "
            f"(def_replications={r} x {min(count, n_def)}), over the "
            f"{DEFINITION_POOL_BUDGET:.0e} budget; lower tau or def_replications"
        )
    return count


@contextlib.contextmanager
def _named_replication(kind: str, rep: int, seed: int):
    """Re-raise an exception of the block as it is, with a note naming the
    replication (the note survives the trip back from a worker process)."""
    try:
        yield
    except Exception as exc:
        # what BaseException.add_note does, which Python 3.10 lacks
        note = f"in {kind} replication {rep}, seed {seed}"
        exc.__notes__ = [*getattr(exc, "__notes__", ()), note]
        raise


def _definition_run(args) -> list[tuple[float, float, np.ndarray]]:
    """A run of contiguous definition-stage replications, ``(params, reps,
    count) ->`` for each replication of ``reps`` the maxima of its sum and
    max paths and the top ``count`` of its preference draws (all of them
    when ``count >= def_n``).  The run shares one ring of block buffers."""
    params, reps, count = args
    config = recursion_config_from_params(params)
    ring = BlockRing()
    out = []
    for rep in reps:
        seed = replication_seed(params["seed"], rep)
        with _named_replication(f"{VERIFY_THM4} definition-stage", rep, seed):
            out.append(pair_maxima(config, params["def_n"], seed, count, ring=ring))
    return out


def _definition_runs(r: int, jobs: int) -> list[range]:
    """The runs of the definition stage's ``r`` replications, one task each:
    all of them at ``jobs = 1``, else a few runs per worker, so the round
    trips stay few."""
    size = r if jobs <= 1 else max(1, r // (4 * jobs))
    return [range(lo, min(lo + size, r)) for lo in range(0, r, size)]


def _definition_stage(params, jobs: int) -> dict:
    """Definition-based theta of the preference regime: replicated paths, threshold
    calibrated on the i.i.d. preference draws (the defining normalization).

    The replications are streamed through the worker pool in runs of
    contiguous replications: each hands in two maxima and its top ``count``
    preference draws, and ``u_n``, the ``count``-th largest pooled draw, is
    taken once for both estimates.
    """
    count = _definition_count(params)
    r, n_def, tau = params["def_replications"], params["def_n"], params["tau"]
    args = [(params, reps, count) for reps in _definition_runs(r, jobs)]
    sum_maxima, max_maxima, tops = zip(*itertools.chain.from_iterable(
        _map_reps(_definition_run, args, jobs)))
    u_n = float(upper_order_statistics(np.concatenate(tops), count)[-1])
    def_sum = definition_theta_from_maxima(sum_maxima, n_def, tau, u_n)
    def_max = definition_theta_from_maxima(max_maxima, n_def, tau, u_n)
    return {"definition_sum": def_sum.estimate, "definition_max": def_max.estimate}


@dataclass(frozen=True)
class Regime:
    """What one replication computes, and what the report checks: every
    replication runs ``estimators`` on a sum and a max path drawn from the
    same inputs (Hill only while ``hill_fraction > 0``) and records
    ``pair_diff_<name>`` for each name in ``pairs``.  The report checks the
    ``theta_checked`` estimates against ``theta_of_z``, and the Hill indices
    of the ``hill_checked`` paths against ``k_of_z`` at relative tolerance
    ``tol_k_rel``, or ``hill_tol`` while ``tol_k_rel`` is not positive."""

    estimators: tuple[str, ...]
    theta_checked: tuple[str, ...]
    hill_checked: tuple[str, ...] = ()
    hill_tol: float = 0.0
    pairs: tuple[str, ...] = ("blocks",)
    # preference regime: replication seeds start at 100_000 + rep, apart
    # from the definition stage's; the blocks threshold is the q quantile
    seed_offset: int = 0
    q_threshold: bool = False
    stage: Callable[[dict, int], dict] | None = None


REGIMES = {
    FIXED_LENGTH: Regime(("blocks", "intervals", "hill"), ("blocks", "intervals"),
                         hill_checked=("sum", "max"), pairs=("blocks", "intervals")),
    "preference": Regime(("blocks",), ("definition", "blocks"), seed_offset=100_000,
                         q_threshold=True, stage=_definition_stage),
    "followers": Regime(("blocks", "intervals"), ("blocks", "intervals")),
    "tail": Regime(("hill", "blocks"), (), hill_checked=("sum",), hill_tol=0.15),
}


def _estimate(name: str, path: np.ndarray, params: dict, blocks_at) -> float:
    """One estimator on one path; ``blocks_at`` is a ``(u, exceed_prob)``
    blocks threshold fixed by the regime, or None for the path's own."""
    if name == "hill":
        return hill(path, ThresholdRule.top_fraction(params["hill_fraction"])).estimate
    if name == "intervals":
        u = nearest_rank_quantile(path, params["intervals_quantile"])
        return intervals_theta(path, u).estimate
    u, p = blocks_at or (nearest_rank_quantile(path, params["blocks_quantile"]), None)
    return blocks_theta(path, u, exceed_prob=p).estimate


def _replication(args) -> dict:
    """One replication of experiment ``kind``, ``(kind, params, rep) -> row``:
    the regime's estimators on a sum and a max path drawn from the same
    inputs.  An exception leaves with a note naming the replication."""
    kind, params, rep = args
    regime_name = params.get("regime", FIXED_LENGTH)
    regime = REGIMES[regime_name]
    seed = replication_seed(params["seed"], regime.seed_offset + rep)
    with _named_replication(kind, rep, seed):
        if regime_name == FIXED_LENGTH:
            sum_path, max_path = sample_weighted_pair(
                _fixed_length_components(params), params["n"], seed)
        else:
            config = recursion_config_from_params(params)
            pair = sample_aggregate_pair(config, params["n"], seed)
            sum_path, max_path, q = pair.sum_values, pair.max_values, pair.preference
        blocks_at = None
        if regime.q_threshold:
            u = nearest_rank_quantile(q, 1.0 - params["blocks_exceed_prob"])
            blocks_at = (u, float(np.count_nonzero(q > u)) / params["n"])
        row = {}
        for label, path in (("sum", sum_path), ("max", max_path)):
            for name in regime.estimators:
                if name != "hill" or params["hill_fraction"] > 0:
                    row[f"{name}_{label}"] = _estimate(name, path, params, blocks_at)
        for name in regime.pairs:
            row[f"pair_diff_{name}"] = abs(row[f"{name}_sum"] - row[f"{name}_max"])
        return row


def _run_replicated(cfg: ExperimentConfig, jobs: int) -> dict:
    """Every kind but tail-eq: the regime's prediction, its replications,
    then its checks against the medians."""
    params = cfg.params
    regime_name = params.get("regime", FIXED_LENGTH)
    regime = REGIMES[regime_name]
    predicted = _predict(regime_name, params)
    if regime.hill_tol > 0 and params["hill_fraction"] <= 0:
        raise ConfigurationError(f"the {regime_name} regime needs hill_fraction > 0")
    staged = regime.stage(params, jobs) if regime.stage else {}
    args = [(cfg.kind, params, rep) for rep in range(params["replications"])]
    estimates = _collect_estimates(_map_reps(_replication, args, jobs))
    estimates.update(staged)
    checks = []
    for name in regime.theta_checked:
        for label in ("sum", "max"):
            key = f"{name}_{label}"
            value = estimates[key] if key in staged else estimates[f"{key}_median"]
            checks.append(_check(f"{key}_theta", value, predicted["theta_of_z"],
                                 params["tol_theta"]))
    tol_k = params["tol_k_rel"] if params["tol_k_rel"] > 0 else regime.hill_tol
    if tol_k > 0 and params["hill_fraction"] > 0:
        for label in regime.hill_checked:
            checks.append(_check(f"hill_{label}_tail_index", estimates[f"hill_{label}_median"],
                                 predicted["k_of_z"], tol_k, relative=True))
    checks.append(
        _check("sum_max_agreement", estimates["pair_diff_blocks_median"], 0.0,
               params["tol_pair"])
    )
    return _make_report(cfg, predicted, estimates, checks)


# ---------------------------------------------------------------------------
# Tail equivalence

def _run_tail_equivalence(cfg: ExperimentConfig, jobs: int) -> dict:
    params = cfg.params
    config = recursion_config_from_params(
        {**params, "deps": "iid", "fixed_in_degree": -1}
    )
    row = compare_tail_sum_max(config, params["n"], [params["quantile"]],
                               params["seed"])[0]
    estimates = asdict(row)
    checks = [
        _interval_check("sum_max_tail_ratio", row.ratio,
                        params["ratio_low"], params["ratio_high"]),
        _interval_check("reliable_exceedances", float(min(row.exceed_sum, row.exceed_max)),
                        float(MIN_RELIABLE_EXCEEDANCES), float("inf")),
    ]
    predicted = {"ratio_limit": 1.0}
    return _make_report(cfg, predicted, estimates, checks)


# ---------------------------------------------------------------------------
# Shared plumbing

def _map_reps(worker: Callable, args: list, jobs: int) -> list:
    """``[worker(a) for a in args]``, on a pool of ``min(jobs, len(args))``
    processes when that is above 1 (a forking pool starts every worker at
    once, so no more than there are tasks).  ``pool.map`` returns results in
    argument order, so reports are reproducible regardless of worker
    scheduling."""
    workers = min(jobs, len(args))
    if workers <= 1:
        return [worker(a) for a in args]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, args))


def _collect_estimates(rows: list[dict]) -> dict:
    estimates: dict = {"replications": len(rows)}
    for key in rows[0]:
        values = np.array([row[key] for row in rows])
        estimates[f"{key}_median"] = float(np.median(values))
        estimates[f"{key}_spread"] = float(np.quantile(values, 0.9) - np.quantile(values, 0.1))
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


# Documented top-level report fields (schema stability contract).
REPORT_FIELDS = (
    "kind", "config", "config_hash", "seed", "predicted", "estimates",
    "checks", "passed", "timestamp",
)


def run_experiment(cfg: ExperimentConfig, jobs: int = 1, out_dir: str | None = None) -> dict:
    """Run one experiment and optionally write its report files.

    Writes ``<kind>.report.json`` and, when per-replication rows exist,
    ``<kind>.estimates.csv`` under ``out_dir``.  The report file is strict
    JSON, with ``null`` for every non-finite value.  Each file is written
    atomically; a failure while either is written replaces neither previous
    file.  ``jobs`` must be at least 1.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    run = _run_tail_equivalence if cfg.kind == TAIL_EQUIVALENCE else _run_replicated
    report = run(cfg, jobs)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        rows = report["estimates"].get("per_replication")
        # both files are complete before either is renamed into place
        with contextlib.ExitStack() as files:
            fh = files.enter_context(
                atomic_write(os.path.join(out_dir, f"{cfg.kind}.report.json")))
            json.dump(_finite_or_null(report), fh, indent=2, allow_nan=False)
            fh.write("\n")
            if rows:
                fh = files.enter_context(
                    atomic_write(os.path.join(out_dir, f"{cfg.kind}.estimates.csv")))
                keys = sorted(rows[0])
                columns = [np.array([row[k] for row in rows]) for k in keys]
                fh.write("replication," + ",".join(keys) + "\n")
                write_rows(fh, "%d" + ",%.17g" * len(keys) + "\n",
                           np.arange(len(rows)), *columns)
    return report
