"""Whole-path oracles of the block sources and of a replication's row, and
the runs the tests check against them.

Each oracle draws its whole path at once from the ``child_rng`` streams
with the public samplers and reduces it with plain NumPy (``reduceat`` over
the whole i.i.d. draws, column by column for explicit columns).  No oracle
calls a kernel of ``recursion`` or ``experiments``, so a kernel that
changes a value, a stream or a rounding order disagrees with its oracle.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from rank_extremes.errors import DataError, ParameterError
from rank_extremes.estimators import (
    ThresholdRule,
    blocks_theta,
    hill,
    intervals_theta,
    nearest_rank_quantile,
)
from rank_extremes.experiments import (
    FIXED_LENGTH,
    REGIMES,
    ExperimentConfig,
    parse_deps,
    recursion_config_from_params,
    run_experiment,
)
from rank_extremes.heavytail import (
    SequenceSpec,
    SequenceStream,
    TailSpec,
    sample_pareto,
    sample_power_law_int,
)
from rank_extremes.rng import STREAMS, child_rng, replication_seed


def whole_in_degrees(config, n, seed):
    """The ``n`` in-degrees of the pair: one draw of the ``in_degree``
    stream, or the fixed in-degree in every row."""
    if config.fixed_in_degree is not None:
        return np.full(n, config.fixed_in_degree, dtype=np.int64)
    return sample_power_law_int(config.in_degree, n, child_rng(seed, STREAMS["in_degree"]))


def whole_iid_draws(config, n, seed):
    """The draws of an i.i.d.-column config in one serial pass over the whole
    path: the in-degrees, the raw preference draws, and the follower draws,
    row ``t`` taking the next ``in_deg[t]`` of them."""
    in_deg = whole_in_degrees(config, n, seed)
    q = sample_pareto(config.preference_tail, n, child_rng(seed, STREAMS["preference"]))
    total = int(in_deg.sum())
    draws = sample_pareto(config.follower_tail, max(total, 1),
                          child_rng(seed, STREAMS["column"]))
    return in_deg, q, draws[:total]


def combine(config, f_sum, f_max, q):
    """The sum and max aggregates of the follower terms and raw preference
    draws ``q``."""
    pref_term = config.z_star * q
    c = config.damping
    return c * f_sum + pref_term, np.maximum(c * f_max, pref_term)


def whole_iid_pair(config, n, seed):
    """``(sums, maxes, in_deg, q)`` of :func:`whole_iid_draws`, each row's
    draws reduced by ``reduceat`` (no row is empty unless every row is)."""
    in_deg, q, draws = whole_iid_draws(config, n, seed)
    if len(draws):
        starts = np.cumsum(in_deg) - in_deg
        f_sum, f_max = np.add.reduceat(draws, starts), np.maximum.reduceat(draws, starts)
    else:
        f_sum = f_max = np.zeros(n)
    return (*combine(config, f_sum, f_max, q), in_deg, q)


def whole_column(seq, n, seed, j):
    """Follower column ``j`` of ``seq``, its ``n`` values in one fill."""
    return SequenceStream(seq, child_rng(seed, STREAMS["column"], j)).fill(np.empty(n))


def masked_column_contributions(config, n, seed, in_deg):
    """The follower sum and max terms of explicit columns, column ``j``
    entering the rows whose in-degree is at least ``j``."""
    sums = np.zeros(n)
    maxes = np.zeros(n)
    for j in range(1, int(in_deg.max()) + 1):
        col = whole_column(SequenceSpec(config.follower_tail, config.column_dep(j)), n, seed, j)
        mask = in_deg >= j
        sums[mask] += col[mask]
        np.maximum(maxes, np.where(mask, col, 0.0), out=maxes)
    return sums, maxes


def whole_pair(config, n, seed):
    """``(sums, maxes, q)`` of either column kind, written out as the
    expressions of the two aggregates over whole paths: those of
    :func:`whole_iid_pair`, or of :func:`masked_column_contributions`."""
    if config.all_iid_columns():
        sums, maxes, _, q = whole_iid_pair(config, n, seed)
        return sums, maxes, q
    in_deg = whole_in_degrees(config, n, seed)
    q = sample_pareto(config.preference_tail, n, child_rng(seed, STREAMS["preference"]))
    return (*combine(config, *masked_column_contributions(config, n, seed, in_deg), q), q)


def fixed_length_components(params):
    """``(z, SequenceSpec)`` of each component of a fixed-length config,
    read from its ``ks``, ``weights``, ``scales`` and ``deps`` keys."""
    ks, zs, cs = ([float(v) for v in params[key].split(",")]
                  for key in ("ks", "weights", "scales"))
    return [(z, SequenceSpec(TailSpec(k, c), dep))
            for k, z, c, dep in zip(ks, zs, cs, parse_deps(params["deps"]))]


def whole_weighted_pair(components, n, seed):
    """``(sums, maxes)`` of the weighted columns, column ``i`` (from 1)
    scaled by its weight and added in order."""
    sums, maxes = np.zeros(n), np.zeros(n)
    for i, (z, seq) in enumerate(components, start=1):
        col = z * whole_column(seq, n, seed, i)
        sums += col
        np.maximum(maxes, col, out=maxes)
    return sums, maxes


def replication_seed_of(params, rep):
    """The seed of replication ``rep`` of the regime of ``params``."""
    regime = REGIMES[params.get("regime", FIXED_LENGTH)]
    return replication_seed(params["seed"], regime.seed_offset + rep)


def estimate(name, path, params, blocks_at):
    """Estimator ``name`` on a whole path, read with the settings of
    ``params``; ``blocks_at`` is a ``(u, exceed_prob)`` blocks threshold, or
    None for the path's own quantile."""
    if name == "hill":
        return hill(path, ThresholdRule.top_fraction(params["hill_fraction"])).estimate
    if name == "intervals":
        u = nearest_rank_quantile(path, params["intervals_quantile"])
        return intervals_theta(path, u).estimate
    u, p = blocks_at or (nearest_rank_quantile(path, params["blocks_quantile"]), None)
    return blocks_theta(path, u, exceed_prob=p).estimate


def whole_path_row(params, seed):
    """A replication's row from its whole sum, max and q paths: each
    estimator of the regime on each path (Hill while ``hill_fraction > 0``),
    with the blocks threshold of q's ``1 - blocks_exceed_prob`` quantile in
    the preference regime, then the sum/max differences."""
    regime_name = params.get("regime", FIXED_LENGTH)
    regime = REGIMES[regime_name]
    n = params["n"]
    if regime_name == FIXED_LENGTH:
        sums, maxes = whole_weighted_pair(fixed_length_components(params), n, seed)
    else:
        sums, maxes, q = whole_pair(recursion_config_from_params(params), n, seed)
    blocks_at = None
    if regime.q_threshold:
        u = nearest_rank_quantile(q, 1.0 - params["blocks_exceed_prob"])
        blocks_at = (u, float(np.count_nonzero(q > u)) / n)
    row = {}
    for label, path in (("sum", sums), ("max", maxes)):
        for name in regime.estimators:
            if name != "hill" or params["hill_fraction"] > 0:
                row[f"{name}_{label}"] = estimate(name, path, params, blocks_at)
    for name in regime.pairs:
        row[f"pair_diff_{name}"] = abs(row[f"{name}_sum"] - row[f"{name}_max"])
    return row


def replication_row(kind, params):
    """The row of ``run_experiment`` of one replication of ``params``, the
    preference regime's definition stage answering at once."""
    stage = dict.fromkeys(("definition_sum", "definition_max"), 0.5)
    fast = dataclasses.replace(REGIMES["preference"], stage=lambda params, jobs: stage)
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(REGIMES, "preference", fast)
        report = run_experiment(ExperimentConfig(kind, dict(params, replications=1)))
    return report["estimates"]["per_replication"][0]


def outcome(run):
    """``repr`` of what ``run()`` returns, so floats compare bit for bit, or
    the type and message of the ``DataError`` or ``ParameterError`` it
    raises (without a replication's note)."""
    try:
        return repr(run())
    except (DataError, ParameterError) as exc:
        return type(exc).__name__, str(exc)


def traced(run):
    """``(run(), peak)``: what ``run()`` returns, and the peak of the memory
    that ``tracemalloc`` traced while it ran."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
