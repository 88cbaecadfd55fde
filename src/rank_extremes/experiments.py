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
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from typing import Callable

import numpy as np

from .errors import ConfigurationError, ParameterError, ResourceError
from .estimators import (
    TailSample,
    ThresholdRule,
    blocks_theta,
    definition_theta_from_maxima,
    definition_top_count,
    hill,
    intervals_theta,
    nearest_rank_index,
    nearest_rank_quantile,
    upper_order_statistics,
)
from .heavytail import (
    DependenceSpec,
    InDegreeSpec,
    SequenceSpec,
    TailSpec,
    theoretical_mm_theta,
)
from .recursion import (
    MIN_RELIABLE_EXCEEDANCES,
    BlockRing,
    RecursionConfig,
    aggregate_pair_blocks,
    compare_tail_sum_max,
    pair_maxima,
    preference_blocks,
    weighted_pair_blocks,
)
from .theory import (
    FOLLOWERS_DOMINATE,
    PREFERENCE_DOMINATES,
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
    "n": 100_000,
    "seed": 20260824,
}


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
        if self.params.get("seed", 0) < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.params['seed']}")
        for key in sorted(self.params):
            if key.startswith("tol_") and self.params[key] < 0:
                raise ConfigurationError(
                    f"parameter '{key}' must be >= 0, got {self.params[key]}")
        if self.kind == VERIFY_THM4 and self.params.get("regime") not in THM4_REGIMES:
            raise ConfigurationError(f"unknown thm4 regime '{self.params.get('regime')}'")

    @classmethod
    def default(cls, kind: str, **overrides) -> "ExperimentConfig":
        if kind not in DEFAULTS:
            raise ConfigurationError(f"unknown experiment kind '{kind}'")
        return cls(kind, apply_overrides(DEFAULTS[kind], overrides, kind))

    def serialize(self) -> str:
        lines = [f"kind={self.kind}"]
        for key in sorted(self.params):
            lines.append(f"{key}={self.params[key]}")
        return "\n".join(lines) + "\n"

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
    )


def _predict(regime: str, params) -> dict:
    """Closed-form predictions for ``regime``, made before any sampling."""
    if regime == FIXED_LENGTH:
        # weighted mixtures of stationary components: the equal-tails
        # average when every component shares one tail index, else the min rule
        z, k, c, theta = zip(*((z, seq.tail.k, seq.tail.c, seq.theta)
                               for z, seq in _fixed_length_components(params)))
        predict = predict_equal_tails if len(set(k)) == 1 else predict_min_rule
        predicted = asdict(predict(z, k, c, theta))
        del predicted["scale_converged"]  # set only by the random-length series
        return predicted
    # every random-length regime refuses bad model keys here, before any sampling
    config = recursion_config_from_params(params)
    if regime == "tail":
        return {"k_of_z": min(params["k"], params["alpha"], params["beta"]),
                "regime": "TAIL_RULE"}
    # n_max follower columns of weight damping and the follower tail; column
    # j takes the theta of follower_deps[(j - 1) % len], as column_dep cycles them
    n_max, tail = params["n_max"], config.follower_tail
    thetas = [theoretical_mm_theta(dep, tail.k) for dep in config.follower_deps]
    # the constants as stride-0 views: n_max floats are held only where they vary
    pred = predict_random_length(
        *(np.broadcast_to(x, n_max) for x in (config.damping, tail.k, tail.c)),
        np.tile(thetas, n_max // len(thetas) + 1)[:n_max],
        alpha=params["alpha"], beta=params["beta"], z_star=config.z_star)
    if regime == "followers":
        if pred.regime != FOLLOWERS_DOMINATE:
            raise ConfigurationError("followers regime requires k < beta")
        return asdict(pred)
    if pred.regime != PREFERENCE_DOMINATES:
        raise ConfigurationError("preference regime requires k >= beta")
    return {"k_of_z": pred.k_of_z, "theta_of_z": pred.theta_of_z, "regime": pred.regime}


# Hard cap on the draws the definition stage's runs hand back, each its top
# min(count, draws) (:class:`_DefinitionRun`): r * min(count, def_n) float64
# values when each run is one replication (10^7 are 80 MB).
DEFINITION_POOL_BUDGET = 10**7


def _definition_count(params) -> int:
    """``count`` of the definition stage: how many of its largest preference
    draws each run hands back.  Refuses too few replications, a ``tau``
    outside ``(0, def_n)`` or tops over their budget, before any sampling."""
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
            f"definition stage may hand back {pooled:.3g} preference draws "
            f"(def_replications={r} x {min(count, n_def)}), over the "
            f"{DEFINITION_POOL_BUDGET:.0e} budget; lower tau or def_replications"
        )
    return count


class _DefinitionRun:
    """A run of definition replications (:func:`_run`): the pair's config,
    and one :class:`TailSample` of ``count``, shared as the run's one ring
    is, that each block's top ``count`` preference draws feed."""

    def __init__(self, params):
        self.config, self.n = recursion_config_from_params(params), params["def_n"]
        self.calibration = TailSample(_definition_count(params))

    def replicate(self, seed: int, ring: BlockRing) -> tuple[float, float]:
        return pair_maxima(self.config, self.n, seed, self.calibration, ring=ring)

    def result(self, maxima: list) -> tuple:
        """The run's sum maxima, max maxima and top ``count`` draws (all, when
        fewer): the top ``count`` of the runs' tops is that of all draws."""
        sample = self.calibration
        return (*zip(*maxima), sample.largest(min(sample.top, sample.n)))


def _definition_stage(params, jobs: int) -> dict:
    """Definition-based theta of the preference regime: replicated paths, threshold
    calibrated on the i.i.d. preference draws (the defining normalization).

    The replications are streamed through :func:`_replicate` in runs
    (:class:`_DefinitionRun`): each reduces its pair to two maxima and feeds
    its blocks' top ``count`` draws to its run's tail sample, of at most
    ``3 * count``.  The main process holds ``runs * count``, the runs'
    tops, and ``u_n``, their ``count``-th largest.
    """
    count = _definition_count(params)
    r, n_def, tau = params["def_replications"], params["def_n"], params["tau"]
    sum_maxima, max_maxima, tops = zip(*_replicate(
        _DefinitionRun.replicate, f"{VERIFY_THM4} definition-stage", params, r, 0, jobs,
        start=_DefinitionRun))
    u_n = float(upper_order_statistics(np.concatenate(tops), count)[-1])
    def_sum = definition_theta_from_maxima(np.concatenate(sum_maxima), n_def, tau, u_n)
    def_max = definition_theta_from_maxima(np.concatenate(max_maxima), n_def, tau, u_n)
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


def _tail_count(regime: Regime, params: dict) -> int:
    """How many of a path's largest values the regime's estimators read at
    most: each quantile threshold's nearest-rank count, and Hill's top
    ``m + 1``; with a q threshold, that threshold's count of q values.
    Refuses a threshold level outside ``(0, 1)``, or a Hill fraction of 1
    or more where the regime reads Hill, naming the key."""
    n = params["n"]
    if regime.q_threshold:
        levels = {"blocks_exceed_prob": 1.0 - params["blocks_exceed_prob"]}
    else:
        levels = {f"{name}_quantile": params[f"{name}_quantile"]
                  for name in regime.estimators if name != "hill"}
    for key, level in levels.items():
        if not 0 < level < 1:
            raise ConfigurationError(
                f"parameter '{key}' must be in (0, 1), got {params[key]}")
    counts = [n - nearest_rank_index(level, n) for level in levels.values()]
    fraction = params["hill_fraction"]
    if "hill" in regime.estimators and fraction > 0:
        if fraction >= 1:
            raise ConfigurationError(
                f"parameter 'hill_fraction' must be below 1 (0 or less turns Hill off), "
                f"got {fraction}")
        counts.append(math.floor(fraction * n) + 1)
    return max(counts)


def _estimate(name: str, path: TailSample, params: dict, blocks_at) -> float:
    """One estimator on one path; ``blocks_at`` is a ``(u, exceed_prob)``
    blocks threshold fixed by the regime, or None for the path's own."""
    if name == "hill":
        return hill(path, ThresholdRule.top_fraction(params["hill_fraction"])).estimate
    if name == "intervals":
        u = nearest_rank_quantile(path, params["intervals_quantile"])
        return intervals_theta(path, u).estimate
    u, p = blocks_at or (nearest_rank_quantile(path, params["blocks_quantile"]), None)
    return blocks_theta(path, u, exceed_prob=p).estimate


def _q_threshold(config: RecursionConfig, n: int, seed: int, top: int,
                 exceed_prob: float, ring: BlockRing) -> tuple[float, float]:
    """The blocks threshold ``(u, exceed_prob)`` of a regime with a q
    threshold: ``u`` the nearest-rank ``1 - exceed_prob`` quantile of the
    pair's raw preference draws, and their frequency above it, from a
    :class:`TailSample` of ``top`` fed those draws alone, drawn into
    ``ring``."""
    q = TailSample(top)
    for block in preference_blocks(config, n, seed, ring):
        q.feed(block)
    u = nearest_rank_quantile(q, 1.0 - exceed_prob)
    return u, float(len(q.above(u))) / n


def _replication(params, seed: int, ring: BlockRing) -> dict:
    """One replication of the regime of ``params``: its estimators on a sum
    and a max path drawn from the same inputs, their block buffers in ``ring``.

    No path is held: each block of the pair feeds a :class:`TailSample` of
    each path, so a replication holds its block ring and O(K) values per
    path, ``K`` from :func:`_tail_count`, whatever ``n``.  A regime with a q
    threshold first takes it from the preference draws alone
    (:func:`_q_threshold`); its pair then gives only the rows that can reach
    it (the floor of :func:`aggregate_pair_blocks`), which is all its
    estimators read."""
    regime_name = params.get("regime", FIXED_LENGTH)
    regime = REGIMES[regime_name]
    n = params["n"]
    top = _tail_count(regime, params)
    floor, blocks_at = -math.inf, None
    if regime_name == FIXED_LENGTH:
        pair = weighted_pair_blocks(_fixed_length_components(params), n, seed, ring=ring)
        # every row, so the count fed is the block's own length
        blocks = ((sums, maxes, None, sums) for sums, maxes in pair)
    else:
        config = recursion_config_from_params(params)
        if regime.q_threshold:
            blocks_at = _q_threshold(config, n, seed, top, params["blocks_exceed_prob"],
                                     ring)
            floor = blocks_at[0]
        blocks = aggregate_pair_blocks(config, n, seed, ring=ring, floor=floor)
    floor_of = None if blocks_at is None else floor
    paths = {"sum": TailSample(top, floor_of), "max": TailSample(top, floor_of)}
    for sums, maxes, rows, q in blocks:
        paths["sum"].feed(sums, rows, len(q))
        paths["max"].feed(maxes, rows, len(q))
    row = {}
    for label, path in paths.items():
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
    _tail_count(regime, params)  # refuses bad estimator settings before any sampling
    staged = regime.stage(params, jobs) if regime.stage else {}
    estimates = _collect_estimates(_replicate(
        _replication, cfg.kind, params, params["replications"], regime.seed_offset, jobs))
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

def available_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, or the CPU count
    where that call does not exist (it is Linux-only)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _runs(r: int, workers: int) -> list[range]:
    """Replications ``0..r-1`` cut into runs of contiguous ones for
    ``workers``: a few runs per worker, so the round trips stay few and the
    workers end together, and one run when there is one worker."""
    size = max(1, r // (4 * workers) if workers > 1 else r)
    return [range(lo, min(lo + size, r)) for lo in range(0, r, size)]


def _run(task):
    """A run of contiguous replications, ``(one, kind, params, reps, offset,
    start) ->`` ``[one(run, replication_seed(seed, offset + rep), ring) for
    rep in reps]``, ``run`` being ``params``, or ``start(params)``, which
    then hands back ``run.result(that list)``.  The replications share
    ``run`` and one :class:`BlockRing`, so a run maps its buffers once.  An
    exception leaves with a note naming the replication (the note survives
    the trip back from a worker process)."""
    one, kind, params, reps, offset, start = task
    run = params if start is None else start(params)
    ring, out = BlockRing(), []
    for rep in reps:
        seed = replication_seed(params["seed"], offset + rep)
        try:
            out.append(one(run, seed, ring))
        except Exception as exc:
            # what BaseException.add_note does, which Python 3.10 lacks
            exc.__notes__ = [*getattr(exc, "__notes__", ()),
                             f"in {kind} replication {rep}, seed {seed}"]
            raise
    return out if start is None else run.result(out)


def _replicate(one: Callable, kind: str, params: dict, r: int, offset: int,
               jobs: int, start: Callable | None = None) -> list:
    """The results of replications ``0..r-1`` of ``one``, in order: every
    replicated stage, the replications of a kind and the definition stage.

    Each run that :func:`_runs` cuts is one task of :func:`_run`; given
    ``start``, the list holds the runs' results in place of the
    replications'.  The pool has ``jobs`` processes at ``jobs >= 2``, else
    one thread per CPU, and no more workers than replications (a forking
    pool starts every worker at once).  This is a run's one level of
    parallelism: every kernel draws its blocks on the thread that runs its
    task.  ``pool.map`` keeps task order, so reports do not depend on
    worker scheduling."""
    workers = min(jobs if jobs > 1 else available_cpus(), r)
    tasks = [(one, kind, params, reps, offset, start) for reps in _runs(r, workers)]
    if workers <= 1:
        runs = [_run(task) for task in tasks]
    else:
        pool = ProcessPoolExecutor(workers) if jobs > 1 else ThreadPoolExecutor(workers)
        with pool:
            runs = list(pool.map(_run, tasks))
    return runs if start else [result for run in runs for result in run]


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
