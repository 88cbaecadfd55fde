"""Stationary paths of random-length rank aggregates and branching trees.

The central object is the pair of stationary sequences

    sum aggregate:  Y_t = sum_{j=1..N_t} c * Y_t^(j) + (1 - c) * q_t
    max aggregate:  Y_t = max_{j<=N_t} c * Y_t^(j)  v  (1 - c) * q_t

where ``N_t`` are power-law in-degrees, column ``j`` is a stationary
follower sequence with its own dependence structure, columns are mutually
independent, and ``q_t`` are i.i.d. heavy-tailed preference draws.  Both
aggregates are always built from the *same* underlying draws, so paired
sum/max comparisons are exact.

Also provided: fixed-length weighted aggregates (the deterministic-``l``
setting), depth-truncated branching-tree simulation of the rank recursion,
and a paired sum-vs-max tail comparison table.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError, ParameterError, ResourceError
from .estimators import upper_order_statistics
from .heavytail import (
    DependenceSpec,
    InDegreeSpec,
    SequenceSpec,
    TailSpec,
    _power_law_tables,
    sample_pareto,
    sample_power_law_int,
    sample_sequence,
)
from .rng import STREAMS, child_rng
from .textio import read_rows, write_rows

SUM = "sum"
MAX = "max"

COUPLING_INDEPENDENT = "independent"
COUPLING_ADVERSARIAL = "adversarial"


@dataclass(frozen=True)
class RecursionConfig:
    """Full parameterization of the random-length aggregate.

    The rank-recursion reading fixes all follower weights to the damping
    factor ``z_j = damping`` and the preference weight to
    ``z_star = 1 - damping``.  ``follower_deps`` is cycled over columns
    ``1..n_max``; ``fixed_in_degree`` pins ``N_t`` to a constant instead of
    drawing from ``in_degree`` (the equal-inclusion setting used by the
    followers-dominant verification).  ``coupling`` optionally rearranges
    the in-degrees comonotonically with the first follower column to probe
    robustness against N-follower dependence.
    """

    damping: float
    in_degree: InDegreeSpec
    follower_tail: TailSpec
    preference_tail: TailSpec
    follower_deps: tuple[DependenceSpec, ...] = (DependenceSpec.iid(),)
    aggregate: str = SUM
    fixed_in_degree: int | None = None
    coupling: str = COUPLING_INDEPENDENT

    def __post_init__(self):
        if not (0 < self.damping < 1):
            raise ParameterError(f"damping must be in (0, 1), got {self.damping}")
        if self.aggregate not in (SUM, MAX):
            raise ParameterError(f"aggregate must be '{SUM}' or '{MAX}'")
        if self.coupling not in (COUPLING_INDEPENDENT, COUPLING_ADVERSARIAL):
            raise ParameterError(f"unknown coupling '{self.coupling}'")
        if len(self.follower_deps) == 0:
            raise ConfigurationError("at least one follower dependence spec required")
        if self.fixed_in_degree is not None and self.fixed_in_degree < 0:
            raise ParameterError("fixed_in_degree must be >= 0")
        if self.fixed_in_degree is not None and self.fixed_in_degree > self.in_degree.n_max:
            raise ConfigurationError(
                f"fixed_in_degree {self.fixed_in_degree} exceeds the configured "
                f"column count n_max={self.in_degree.n_max}"
            )

    @property
    def z_star(self) -> float:
        return 1.0 - self.damping

    def column_dep(self, j: int) -> DependenceSpec:
        """Dependence spec of follower column ``j`` (1-based), cycled."""
        return self.follower_deps[(j - 1) % len(self.follower_deps)]

    def all_iid_columns(self) -> bool:
        return all(dep.is_iid for dep in self.follower_deps)


@dataclass(frozen=True)
class AggregatePath:
    """One realized stationary path plus the inputs that produced it."""

    values: np.ndarray
    config: RecursionConfig
    seed: int
    n: int
    in_degrees: np.ndarray = field(repr=False)
    preference: np.ndarray = field(repr=False)  # raw q_t draws, unscaled

    def write_csv(self, fileobj) -> None:
        """Single-column CSV with a ``# key=value`` metadata header.

        Keys appear in a fixed documented order: damping, alpha, n_max,
        fixed_in_degree, follower_k, follower_c, follower_deps, beta,
        preference_c, aggregate, coupling, n, seed.
        """
        cfg = self.config
        deps = ";".join(",".join(repr(a) for a in d.coeffs) for d in cfg.follower_deps)
        meta = [
            ("damping", cfg.damping),
            ("alpha", cfg.in_degree.alpha),
            ("n_max", cfg.in_degree.n_max),
            ("fixed_in_degree", cfg.fixed_in_degree),
            ("follower_k", cfg.follower_tail.k),
            ("follower_c", cfg.follower_tail.c),
            ("follower_deps", deps),
            ("beta", cfg.preference_tail.k),
            ("preference_c", cfg.preference_tail.c),
            ("aggregate", cfg.aggregate),
            ("coupling", cfg.coupling),
            ("n", self.n),
            ("seed", self.seed),
        ]
        for key, value in meta:
            fileobj.write(f"# {key}={value}\n")
        fileobj.write("value\n")
        write_rows(fileobj, "%.17g\n", self.values)

    def to_csv(self) -> str:
        buf = io.StringIO()
        self.write_csv(buf)
        return buf.getvalue()


def read_path_csv(fileobj) -> np.ndarray:
    """Values of a path CSV written by ``AggregatePath.write_csv``."""
    return read_rows(fileobj, 1, float, title="value").ravel()


@dataclass(frozen=True)
class AggregatePair:
    """Sum and max aggregates built from identical underlying draws."""

    sum_values: np.ndarray
    max_values: np.ndarray
    in_degrees: np.ndarray
    preference: np.ndarray  # raw q_t draws, unscaled
    config: RecursionConfig
    seed: int


def _draw_in_degrees(config: RecursionConfig, n: int, rng: np.random.Generator) -> np.ndarray:
    if config.fixed_in_degree is not None:
        return np.full(n, config.fixed_in_degree, dtype=np.int64)
    return sample_power_law_int(config.in_degree, n, rng)


def _segment_reduce(values: np.ndarray, counts: np.ndarray, *ufuncs) -> tuple:
    """Each ufunc's reduction of each of ``len(counts)`` consecutive segments
    of ``values``, segment ``i`` holding the next ``counts[i]`` values
    (``counts.sum() == len(values)``).  An empty segment gives 0.

    When every segment is nonempty (every power-law in-degree is at least 1)
    the ``reduceat`` offsets are the segment starts as they are; otherwise
    the empty segments are masked out of the same ``reduceat`` calls.
    """
    n = len(counts)
    offsets = np.zeros(n, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    if n and counts.min() >= 1:
        return tuple(ufunc.reduceat(values, offsets) for ufunc in ufuncs)
    results = tuple(np.zeros(n) for _ in ufuncs)
    if len(values):
        nonzero = counts > 0
        starts = offsets[nonzero]
        for out, ufunc in zip(results, ufuncs):
            out[nonzero] = ufunc.reduceat(values, starts)
    return results


def _column_contributions(config, n, seed, in_deg):
    """Follower sum/max terms from explicit stationary columns.

    Returns ``(sums, maxes, in_deg)``; under adversarial coupling the
    returned in-degrees are a rearranged copy and the caller's array is
    left as it was.
    """
    max_n = int(in_deg.max()) if len(in_deg) else 0
    # every row includes the columns up to the smallest in-degree (the
    # adversarial rearrangement below permutes in_deg, so keeps its minimum)
    min_n = int(in_deg.min()) if len(in_deg) else 0
    sums = np.zeros(n)
    maxes = np.zeros(n)
    col = np.empty(n)  # every column is drawn into this one buffer
    for j in range(1, max_n + 1):
        sample_sequence(SequenceSpec(config.follower_tail, config.column_dep(j)), n,
                        child_rng(seed, STREAMS["column"], j), out=col)
        if config.coupling == COUPLING_ADVERSARIAL and j == 1:
            # Comonotone rearrangement: large in-degrees align with large
            # first-column values while both marginals are preserved.
            order = np.argsort(col, kind="stable")
            rearranged = np.empty(n, dtype=np.int64)
            rearranged[order] = np.sort(in_deg)
            in_deg = rearranged
        if j <= min_n:
            sums += col
            np.maximum(maxes, col, out=maxes)
        else:
            mask = in_deg >= j
            np.add(sums, col, out=sums, where=mask)
            np.maximum(maxes, col, out=maxes, where=mask)
    return sums, maxes, in_deg


def _add_preference(config, f_sum, f_max, q):
    """``c * f_sum + pref_term`` and ``max(c * f_max, pref_term)``, written
    in place over the follower terms, with ``pref_term = (1 - c) * q``."""
    c = config.damping
    pref_term = config.z_star * q
    np.multiply(c, f_sum, out=f_sum)
    np.add(f_sum, pref_term, out=f_sum)
    np.multiply(c, f_max, out=f_max)
    np.maximum(f_max, pref_term, out=f_max)
    return f_sum, f_max


def _iid_draw_blocks(config: RecursionConfig, n: int, seed: int, block_rows: int):
    """The draws of an i.i.d.-column config, ``block_rows`` rows at a time.

    Yields ``(in_deg, q, draws)`` for consecutive row blocks: the in-degrees,
    the raw preference draws and the block's follower draws, row ``t`` taking
    the next ``in_deg[t]`` of them.  With i.i.d. columns the values entering
    a row are fresh draws, so this flat buffer has exactly the law of the
    column construction.  Each of the ``in_degree``, ``preference`` and
    ``column`` streams is drawn block after block; a stream drawn in
    consecutive chunks gives the values of one draw, and a block's column
    draws end with its last row, so the blocks concatenated equal the whole
    path bit for bit.
    """
    deg_rng = child_rng(seed, STREAMS["in_degree"])
    pref_rng = child_rng(seed, STREAMS["preference"])
    col_rng = child_rng(seed, STREAMS["column"])
    for start in range(0, n, block_rows):
        rows = min(block_rows, n - start)
        in_deg = _draw_in_degrees(config, rows, deg_rng)
        q = sample_pareto(config.preference_tail, rows, pref_rng)
        total = int(in_deg.sum())
        draws = sample_pareto(config.follower_tail, max(total, 1), col_rng)
        yield in_deg, q, draws[:total]


def _iid_pair_blocks(config: RecursionConfig, n: int, seed: int, block_rows: int):
    """Both aggregates of an i.i.d.-column config, ``block_rows`` rows at a
    time: yields ``(sums, maxes, in_deg, q)`` for the blocks of
    :func:`_iid_draw_blocks`."""
    for in_deg, q, draws in _iid_draw_blocks(config, n, seed, block_rows):
        f_sum, f_max = _segment_reduce(draws, in_deg, np.add, np.maximum)
        yield (*_add_preference(config, f_sum, f_max, q), in_deg, q)


def _check_pair_args(config: RecursionConfig, n: int) -> None:
    if n < 1:
        raise ParameterError(f"path length must be >= 1, got {n}")
    if config.coupling == COUPLING_ADVERSARIAL and config.all_iid_columns():
        raise ConfigurationError(
            "adversarial coupling requires explicit follower columns; "
            "configure at least one non-i.i.d. dependence spec"
        )


def sample_aggregate_pair(config: RecursionConfig, n: int, seed: int) -> AggregatePair:
    """Simulate both aggregates of length ``n`` from one set of draws."""
    _check_pair_args(config, n)
    if config.all_iid_columns():
        sums, maxes, in_deg, q = next(_iid_pair_blocks(config, n, seed, n))
    else:
        in_deg = _draw_in_degrees(config, n, child_rng(seed, STREAMS["in_degree"]))
        q = sample_pareto(config.preference_tail, n, child_rng(seed, STREAMS["preference"]))
        f_sum, f_max, in_deg = _column_contributions(config, n, seed, in_deg)
        sums, maxes = _add_preference(config, f_sum, f_max, q)
    return AggregatePair(
        sum_values=sums,
        max_values=maxes,
        in_degrees=in_deg,
        preference=q,
        config=config,
        seed=seed,
    )


def sample_aggregate(config: RecursionConfig, n: int, seed: int) -> AggregatePath:
    """Simulate the aggregate selected by ``config.aggregate``."""
    pair = sample_aggregate_pair(config, n, seed)
    values = pair.sum_values if config.aggregate == SUM else pair.max_values
    return AggregatePath(
        values=values,
        config=config,
        seed=seed,
        n=n,
        in_degrees=pair.in_degrees,
        preference=pair.preference,
    )


def pair_maxima(config: RecursionConfig, n: int, seed: int) -> tuple[float, float, np.ndarray]:
    """The largest sum and the largest max value of the pair
    ``sample_aggregate_pair(config, n, seed)``, and its raw preference draws.

    With i.i.d. columns no max path is built: multiplying by ``c > 0`` is
    monotone under rounding and every follower draw lies in a nonempty row,
    so the largest max value is exactly ``max(c * max(draws), (1 - c) * max(q))``.
    """
    _check_pair_args(config, n)
    if not config.all_iid_columns():
        pair = sample_aggregate_pair(config, n, seed)
        return float(pair.sum_values.max()), float(pair.max_values.max()), pair.preference
    in_deg, q, draws = next(_iid_draw_blocks(config, n, seed, n))
    (sums,) = _segment_reduce(draws, in_deg, np.add)
    pref_term = config.z_star * q
    np.multiply(config.damping, sums, out=sums)
    np.add(sums, pref_term, out=sums)
    max_max = pref_term.max()
    if len(draws):
        max_max = max(config.damping * draws.max(), max_max)
    return float(sums.max()), float(max_max), q


def sample_weighted_pair(
    components: list[tuple[float, SequenceSpec]], n: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-length weighted sum and maximum of ``l`` stationary columns.

    Returns ``(sum_path, max_path)`` where
    ``sum_path[t] = sum_i z_i * Y_t^(i)`` and
    ``max_path[t] = max_i z_i * Y_t^(i)``, with mutually independent
    columns drawn from disjoint RNG streams.
    """
    if len(components) == 0:
        raise ParameterError("at least one weighted component required")
    if n < 1:
        raise ParameterError(f"path length must be >= 1, got {n}")
    sums = np.zeros(n)
    maxes = np.zeros(n)
    for i, (z, seq) in enumerate(components, start=1):
        if not z > 0:
            raise ParameterError(f"weights must be positive, got {z}")
        col = sample_sequence(seq, n, child_rng(seed, STREAMS["column"], i))
        col *= z
        sums += col
        np.maximum(maxes, col, out=maxes)
    return sums, maxes


@dataclass(frozen=True)
class TbtSample:
    """Root values of a depth-truncated branching-tree rank recursion."""

    root_values: np.ndarray
    depth: int
    total_nodes: int
    config: RecursionConfig
    seed: int


# Hard cap on the expected number of tree nodes before refusing to expand.
TBT_NODE_BUDGET = 10**8


def _expected_in_degree(config: RecursionConfig) -> float:
    if config.fixed_in_degree is not None:
        return float(config.fixed_in_degree)
    pmf, _ = _power_law_tables(config.in_degree)
    support = np.arange(1, config.in_degree.n_max + 1, dtype=float)
    return float(np.dot(support, pmf))


def expected_tree_size(config: RecursionConfig, depth: int, n_roots: int) -> float:
    """Expected total node count of the truncated expansion."""
    mean_n = _expected_in_degree(config)
    if mean_n == 1.0:
        per_root = depth + 1.0
    else:
        per_root = (mean_n ** (depth + 1) - 1.0) / (mean_n - 1.0)
    return n_roots * per_root


def simulate_tbt(
    config: RecursionConfig,
    depth: int,
    n_roots: int,
    seed: int,
    out_degree: InDegreeSpec | None = None,
    constant_preference: float | None = None,
) -> TbtSample:
    """Expand the rank recursion ``depth`` generations below each root.

    Each node draws its own in-degree; every edge weight is ``c / D`` with
    ``D`` the child out-degree (``D = 1`` unless ``out_degree`` is given,
    so the weight is exactly the damping factor).  Leaves close with the
    preference term ``(1 - c) * q``.  All nodes are mutually independent
    (pure branching-tree reading).  ``constant_preference`` replaces the
    random ``q`` draws by a constant, for deterministic checks.
    """
    if depth < 0:
        raise ParameterError(f"depth must be >= 0, got {depth}")
    if n_roots < 1:
        raise ParameterError(f"n_roots must be >= 1, got {n_roots}")
    expected = expected_tree_size(config, depth, n_roots)
    if expected >= TBT_NODE_BUDGET:
        raise ResourceError(
            f"expected tree size {expected:.3g} nodes exceeds the "
            f"{TBT_NODE_BUDGET:.0e} budget at depth {depth}"
        )

    c = config.damping
    z_star = config.z_star

    def pref(rng, size):
        if constant_preference is not None:
            return np.full(size, float(constant_preference))
        return sample_pareto(config.preference_tail, size, rng)

    # Top-down pass: record each generation's in-degrees.
    counts = [n_roots]
    gen_in_deg = []
    total_nodes = n_roots
    for g in range(depth):
        n_g = _draw_in_degrees(config, counts[-1], child_rng(seed, STREAMS["tbt"], 0, g))
        if not n_g.any():
            break  # a childless generation (fixed_in_degree=0) holds the leaves
        gen_in_deg.append(n_g)
        counts.append(int(n_g.sum()))
        total_nodes += counts[-1]

    # Bottom-up pass: leaves close with the preference term, then each
    # generation aggregates its children.
    leaf_gen = len(gen_in_deg)
    values = z_star * pref(child_rng(seed, STREAMS["tbt"], 1, leaf_gen), counts[-1])
    for g in range(leaf_gen - 1, -1, -1):
        n_g = gen_in_deg[g]
        n_parents = counts[g]
        child_total = counts[g + 1]
        if out_degree is not None:
            rng_d = child_rng(seed, STREAMS["tbt"], 2, g)
            d = sample_power_law_int(out_degree, child_total, rng_d).astype(float)
            weights = c / d
        else:
            weights = c
        ufunc = np.add if config.aggregate == SUM else np.maximum
        (agg,) = _segment_reduce(weights * values, n_g, ufunc)
        q_term = z_star * pref(child_rng(seed, STREAMS["tbt"], 1, g), n_parents)
        values = ufunc(agg, q_term)
    return TbtSample(
        root_values=values,
        depth=depth,
        total_nodes=total_nodes,
        config=config,
        seed=seed,
    )


@dataclass(frozen=True)
class TailRatioRow:
    """One threshold row of the paired sum-vs-max exceedance comparison."""

    quantile: float
    threshold: float
    exceed_sum: int
    exceed_max: int
    ratio: float
    ci_low: float
    ci_high: float
    reliable: bool


# Rows with fewer exceedances than this on either side are flagged.
MIN_RELIABLE_EXCEEDANCES = 50

# Rows per block of the streamed i.i.d.-column comparison: 2 MB for each
# float64 array of a block, plus the block's follower draws.
PAIR_BLOCK_ROWS = 2**18


def compare_tail_sum_max(
    config: RecursionConfig, n: int, thresholds: list[float], seed: int
) -> list[TailRatioRow]:
    """Paired-seed ratio ``P{sum > x} / P{max > x}`` per upper quantile.

    Thresholds are quantile levels in (0.9, 1), resolved on the max path
    (nearest rank).  The confidence band is a Wald interval on the log
    ratio using the paired exceedance counts.

    An i.i.d.-column config is generated and reduced in blocks of
    ``PAIR_BLOCK_ROWS`` rows, so memory is O(block + count) with
    ``count = n - min(rank)`` the largest number of max values a threshold
    needs.  The reduction keeps the top ``count`` max values and the sum
    values above their running ``count``-th largest, a lower bound on every
    threshold, so thresholds and counts equal those of the whole path.
    Explicit-column configs are built whole and reduced as one block.
    """
    for qv in thresholds:
        if not (0.9 < qv < 1.0):
            raise ParameterError(f"thresholds must be upper quantiles in (0.9, 1), got {qv}")
    rows: list[TailRatioRow] = []
    if not thresholds:
        return rows
    _check_pair_args(config, n)
    ranks = [min(int(np.ceil(qv * n)) - 1, n - 1) for qv in thresholds]
    count = n - min(ranks)
    if config.all_iid_columns():
        blocks = _iid_pair_blocks(config, n, seed, PAIR_BLOCK_ROWS)
    else:
        pair = sample_aggregate_pair(config, n, seed)
        blocks = [(pair.sum_values, pair.max_values)]
    top_max = np.empty(0)
    sum_kept = np.empty(0)
    floor = -np.inf  # the count-th largest max so far, once count are seen
    for sums, maxes, *_ in blocks:
        top_max = np.concatenate([top_max, maxes[maxes > floor]])
        if len(top_max) >= count:
            top_max = np.partition(top_max, len(top_max) - count)[len(top_max) - count:]
            floor = top_max[0]
        sum_kept = np.concatenate([sum_kept[sum_kept > floor], sums[sums > floor]])
    # descending top of the max path: rank idx (ascending) sits at n - 1 - idx
    top_max = upper_order_statistics(top_max, count)
    for qv, idx in zip(thresholds, ranks):
        x = float(top_max[n - 1 - idx])
        k_sum = int(np.count_nonzero(sum_kept > x))
        k_max = int(np.count_nonzero(top_max > x))
        reliable = min(k_sum, k_max) >= MIN_RELIABLE_EXCEEDANCES
        if k_max == 0 or k_sum == 0:
            rows.append(TailRatioRow(qv, x, k_sum, k_max, float("nan"),
                                     float("nan"), float("nan"), False))
            continue
        ratio = k_sum / k_max
        # Var of log ratio for paired binomial counts (conservative,
        # ignores the positive correlation between the two indicators).
        se = np.sqrt(1.0 / k_sum + 1.0 / k_max)
        rows.append(
            TailRatioRow(
                quantile=qv,
                threshold=x,
                exceed_sum=k_sum,
                exceed_max=k_max,
                ratio=float(ratio),
                ci_low=float(ratio * np.exp(-1.96 * se)),
                ci_high=float(ratio * np.exp(1.96 * se)),
                reliable=reliable,
            )
        )
    return rows
