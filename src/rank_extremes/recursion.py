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
and a paired sum-vs-max tail comparison table.  Both kinds of pair come
one row block at a time (:func:`aggregate_pair_blocks`,
:func:`weighted_pair_blocks`), so their consumers hold no path;
:func:`sample_aggregate_pair`, :func:`sample_weighted_pair` and
:func:`sample_aggregate` copy those blocks into whole paths.  One loop
draws the random-length pair of either column kind (:func:`_pair_blocks`):
each block's in-degrees and preference values, its follower terms from
:func:`_iid_followers` or :func:`_column_block`, and the preference term.
Given a floor, or in :func:`pair_maxima` each block's largest preference
term (its top draws feed a :class:`TailSample`), i.i.d. columns bound the
rows and refine only those that can reach it.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, ParameterError, ResourceError
from .estimators import TailSample, nearest_rank_index
from .heavytail import (
    DependenceSpec,
    InDegreeSpec,
    SequenceSpec,
    SequenceStream,
    TailSpec,
    _power_law_pmf,
    pareto_transform,
    sample_pareto,
    sample_power_law_int,
)
from .rng import STREAMS, child_rng
from .textio import read_rows, write_rows

SUM = "sum"
MAX = "max"


@dataclass(frozen=True)
class RecursionConfig:
    """Full parameterization of the random-length aggregate.

    The rank-recursion reading fixes all follower weights to the damping
    factor ``z_j = damping`` and the preference weight to
    ``z_star = 1 - damping``.  ``follower_deps`` is cycled over columns
    ``1..n_max``; ``fixed_in_degree`` pins ``N_t`` to a constant instead of
    drawing from ``in_degree`` (the equal-inclusion setting used by the
    followers-dominant verification).
    """

    damping: float
    in_degree: InDegreeSpec
    follower_tail: TailSpec
    preference_tail: TailSpec
    follower_deps: tuple[DependenceSpec, ...] = (DependenceSpec.iid(),)
    aggregate: str = SUM
    fixed_in_degree: int | None = None

    def __post_init__(self):
        if not (0 < self.damping < 1):
            raise ParameterError(f"damping must be in (0, 1), got {self.damping}")
        if self.aggregate not in (SUM, MAX):
            raise ParameterError(f"aggregate must be '{SUM}' or '{MAX}'")
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

    def write_csv(self, fileobj) -> None:
        """Single-column CSV with a ``# key=value`` metadata header.

        Keys appear in a fixed documented order: damping, alpha, n_max,
        fixed_in_degree, follower_k, follower_c, follower_deps, beta,
        preference_c, aggregate, n, seed.
        """
        _write_path_header(fileobj, self.config, self.n, self.seed)
        write_rows(fileobj, "%.17g\n", self.values)

    def to_csv(self) -> str:
        buf = io.StringIO()
        self.write_csv(buf)
        return buf.getvalue()


def _write_path_header(fileobj, cfg: RecursionConfig, n: int, seed: int) -> None:
    """The header of a path CSV, its ``# key=value`` lines and ``value``."""
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
        ("n", n),
        ("seed", seed),
    ]
    for key, value in meta:
        fileobj.write(f"# {key}={value}\n")
    fileobj.write("value\n")


def read_path_csv(fileobj) -> np.ndarray:
    """Values of a path CSV written by :func:`write_path_csv`."""
    return read_rows(fileobj, 1, float, title="value").ravel()


def _draw_in_degrees(config: RecursionConfig, n: int, rng: np.random.Generator, *,
                     out=None, ring=None) -> np.ndarray:
    """``n`` in-degrees, written into ``out`` when given.  A drawn in-degree
    takes the lookup's scratch from ``ring`` when given (``work`` of
    :func:`sample_power_law_int`); a fixed one needs none."""
    if config.fixed_in_degree is None:
        work = None if ring is None else ring.get("deg_work", n, np.intp)
        return sample_power_law_int(config.in_degree, n, rng, out=out, work=work)
    if out is None:
        return np.full(n, config.fixed_in_degree, dtype=np.int64)
    out.fill(config.fixed_in_degree)
    return out


def _segment_reduce(values: np.ndarray, counts: np.ndarray, *ufuncs) -> tuple:
    """Each ufunc's reduction of each of ``len(counts)`` consecutive segments
    of ``values``, segment ``i`` holding the next ``counts[i]`` values
    (``counts.sum() == len(values)``).

    Every count is at least 1 (a power-law in-degree, or a fixed one of at
    least 1), or there are no values and every segment gives 0 (a fixed
    in-degree of 0); the ``reduceat`` offsets are then the segment starts.
    """
    if not len(values):
        return tuple(np.zeros(len(counts)) for _ in ufuncs)
    offsets = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    return tuple(ufunc.reduceat(values, offsets) for ufunc in ufuncs)


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(s, s + l)`` over the ``(starts, lengths)`` pairs."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1]) + np.repeat(starts - (ends - lengths), lengths)


class BlockRing:
    """The block buffers of the blocked kernels: named arrays, each grown to
    the largest size asked of it.  A ring given to successive calls
    allocates its arrays once, so a run of replications does not map and
    fault in fresh pages for each.  A ring serves one call at a time, and a
    kernel holds one block in flight: it draws the next block into the
    arrays only once the consumer asks for it.
    """

    def __init__(self):
        self._arrays = {}

    def get(self, name: str, size: int, dtype=np.float64) -> np.ndarray:
        """The first ``size`` values of the array ``name``."""
        a = self._arrays.get(name)
        if a is None or len(a) < size:
            # by a quarter at least: a follower count a little above the
            # last one grows it once
            grown = size if a is None else max(size, len(a) * 5 // 4)
            self._arrays[name] = a = None  # freed before its successor, unless a block holds it
            a = self._arrays[name] = np.empty(grown, dtype)
        return a[:size]


# Rows per block of the pair of aggregate_pair_blocks, of every
# explicit-column block (pair_maxima's too: at 2^16 rows an explicit-column
# definition replication peaked at twice the memory), of weighted_pair_blocks
# and of preference_blocks: 256 KB for each float64 array of a block, plus an
# i.i.d. block's follower draws.
STREAM_BLOCK_ROWS = 2**15

# Rows per block of the bound-and-refine maxima of pair_maxima.  Its blocks
# hand no rows on, and each takes a dozen NumPy calls: at 2^15 rows, 200
# definition replications of 10^5 rows took 21 % more CPU time on 2 CPUs.
MAXIMA_BLOCK_ROWS = 2**16

# Follower draws an i.i.d.-column block holds, unless one row alone takes
# more: a draw buffer stays within 1.25 * max(BLOCK_DRAWS, n_max) values
# whatever the in-degree's tail.
BLOCK_DRAWS = 2**17


def _column_block(columns, size: int, ring: BlockRing, *, weights=None, in_deg=None):
    """Sums and maxima over the next ``size`` rows of the columns, each
    ``columns[j]`` a :class:`SequenceStream`: ``(sums, maxes)``, the ``ring``
    arrays of those names, valid until the next call.

    Column ``j`` enters a row scaled by ``weights[j]`` when weights are
    given, and only where the row's in-degree ``in_deg`` exceeds ``j`` when
    in-degrees are given.  Each column's block is drawn into the ring's
    ``out`` array and reduced at once, the columns in order, so every sum
    keeps its rounding order.
    """
    lag = max((col.lag for col in columns), default=0)
    # every row includes the columns below the block's smallest in-degree
    min_n = len(columns) if in_deg is None else int(in_deg.min())
    sums, maxes = ring.get("sums", size), ring.get("maxes", size)
    sums.fill(0.0)
    maxes.fill(0.0)
    work = ring.get("work", size + lag) if lag else None
    for j, column in enumerate(columns):
        col = column.fill(ring.get("out", size), work)
        if weights is not None and weights[j] != 1.0:  # a weight of 1.0 changes no value
            col *= weights[j]
        if j < min_n:
            sums += col
            np.maximum(maxes, col, out=maxes)
        else:
            mask = in_deg > j  # the rows whose in-degree includes column j + 1
            np.add(sums, col, out=sums, where=mask)
            np.maximum(maxes, col, out=maxes, where=mask)
    return sums, maxes


def _follower_columns(config, seed, count):
    """The streams of follower columns ``1..count``."""
    return [SequenceStream(SequenceSpec(config.follower_tail, config.column_dep(j)),
                           child_rng(seed, STREAMS["column"], j))
            for j in range(1, count + 1)]


def _add_preference(config, f_sum, f_max, q):
    """``c * f_sum + pref_term`` and ``max(c * f_max, pref_term)``, with
    ``pref_term = (1 - c) * q``, written in place over the follower terms."""
    c = config.damping
    pref_term = config.z_star * q
    np.multiply(c, f_sum, out=f_sum)
    np.add(f_sum, pref_term, out=f_sum)
    np.multiply(c, f_max, out=f_max)
    np.maximum(f_max, pref_term, out=f_max)
    return f_sum, f_max


def _capped_blocks(in_deg: np.ndarray, cap: float) -> list[tuple[int, int, int]]:
    """``(a, b, draws)`` for consecutive row ranges ``a:b`` that cover the
    rows of in-degrees ``in_deg``, ``draws`` the sum of their in-degrees:
    each range the longest from its start whose draws are at most ``cap``,
    or one row whose in-degree alone exceeds it."""
    total = int(in_deg.sum())
    if total <= cap:
        return [(0, len(in_deg), total)]
    ends = np.cumsum(in_deg)
    parts, a, done = [], 0, 0
    while a < len(in_deg):
        b = max(a + 1, int(np.searchsorted(ends, done + cap, side="right")))
        parts.append((a, b, int(ends[b - 1]) - done))
        a, done = b, int(ends[b - 1])
    return parts


def _in_degree_blocks(config: RecursionConfig, n: int, seed: int, block_rows: int,
                      ring: BlockRing, cap: float = math.inf):
    """The in-degrees of ``n`` rows, the draws of the ``in_degree`` stream,
    in row order: yields ``(in_deg, total)`` per block, ``total`` the sum of
    ``in_deg``, the count of its follower draws.  They are drawn
    ``block_rows`` rows at a time into the ring's ``in_deg`` array, each run
    cut into blocks of at most ``cap`` follower draws (:func:`_capped_blocks`).
    """
    rng = child_rng(seed, STREAMS["in_degree"])
    for start in range(0, n, block_rows):
        size = min(block_rows, n - start)
        drawn = _draw_in_degrees(config, size, rng, ring=ring,
                                 out=ring.get("in_deg", size, np.int64))
        for a, b, total in _capped_blocks(drawn, cap):
            yield drawn[a:b], total


# Relative error allowed for NumPy's ``pow``, which need not round correctly
# nor be monotone: far above the few units of 2^-53 of libm's and SVML's.
POW_MARGIN = 2.0**-40


def _draw_bound(spec: TailSpec, u_max: float) -> float:
    """At least the Pareto value of every uniform up to ``u_max``: that of
    ``u_max``, times ``1 + POW_MARGIN``.  Each step of the transform is
    monotone in the uniform, ``pow`` up to its rounding error."""
    return float(pareto_transform(spec, np.array([u_max]))[0]) * (1.0 + POW_MARGIN)


def _bound_weight(cx: float, most: int) -> float:
    """``w`` of :func:`_sum_bounds`."""
    return cx * (1.0 + (most + 1) * 2.0**-50)


def _sum_bounds(in_deg, pref, cx: float, most: int) -> np.ndarray:
    """At least each row's computed sum ``fl(fl(c * F) + P)``, where ``F``
    is the rounded sum of the row's ``N <= most`` draws, each at most ``X``,
    ``P`` its preference term and ``cx = c * X``: ``fl(fl(N * w) + P)``,
    with ``w = cx * (1 + (most + 1) * 2^-50)``.

    The margin is far above the ``N`` roundings of ``fl(c * F)`` and the
    four of ``fl(N * w)``, so ``fl(N * w) >= fl(c * F)``; a row without
    draws has ``F = 0``.  Rounding is monotone, so adding ``P`` to both
    keeps their order.
    """
    out = np.multiply(in_deg, _bound_weight(cx, most))
    return np.add(out, pref, out=out)


def _least_reaching(floor: float, z: float, cx: float, most: int) -> float:
    """A raw preference draw below which no row's bound (:func:`_sum_bounds`)
    reaches ``floor > 0``, or ``-inf``.

    A row's bound is at most ``fl(M + P)``, ``M = fl(most * w)``, since
    ``N <= most`` and rounding is monotone, and its term is ``P = fl(z *
    q)``.  A draw ``q`` below ``(floor - M) / z`` by more than ``2^-40 *
    (floor + M) / z``, far beyond the roundings of the threshold, of ``P``
    and of ``M + P``, keeps ``fl(M + P)`` below ``floor``.
    """
    m = most * _bound_weight(cx, most)
    least = (floor - m - (floor + m) * 2.0**-40) / z
    return least if math.isfinite(least) else -math.inf


def _picked_positions(counts: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The positions of the draws of ``rows`` (ascending, nonempty) among
    draws that fill rows of ``counts`` in order, row after row."""
    # each row's first position: the counts before the first row, then the
    # sums of the counts between consecutive rows (none past the last row)
    between = np.add.reduceat(counts[: rows[-1] + 1], rows)
    return _ranges(np.cumsum(between) - between + counts[: rows[0]].sum(), counts[rows])


def _iid_followers(config: RecursionConfig, seed: int, ring: BlockRing,
                   floor: float | None):
    """The follower terms of an i.i.d.-column config's blocks: a function of a
    block's in-degrees ``in_deg``, their sum ``total`` and its raw preference
    draws ``q`` that returns ``(f_sum, f_max, rows)``, ``rows`` as
    :func:`aggregate_pair_blocks` yields them.  The rows left out have their
    sum and max values below ``floor``, or below the block's largest
    preference term when that is ``None``; at ``-inf`` no row is bounded.

    With i.i.d. columns the values entering a row are fresh draws, so row
    ``t`` takes the next ``in_deg[t]`` draws of the one ``column`` stream;
    this has exactly the law of the column construction.  Each call takes
    the next ``total`` draws of that stream's one generator, so every value
    equals that of the whole path drawn at once, bit for bit, whatever the
    block size, draw cap and floor.

    A block draws only the uniforms of its follower draws.  Under a finite
    floor, the transform of its largest uniform bounds every follower draw
    by ``X`` (:func:`_draw_bound`), and so each row's sum by
    :func:`_sum_bounds`, and its max value, which is at most its sum.  Only
    the rows whose bound reaches the floor are transformed and reduced, each
    as the whole block reduces it; when that is every row, the draws are
    transformed in place.  No value falls below its row's preference term
    ``P``, so at the block's largest ``P`` the refined rows hold the block's
    largest sum and its largest max value.

    A block's follower draws take the ring's one ``draws`` buffer and live
    only while the function runs: it returns before the block is handed on,
    so that buffer grows without its old array held.
    """
    c, z, follower = config.damping, config.z_star, config.follower_tail
    most = (config.in_degree.n_max if config.fixed_in_degree is None
            else config.fixed_in_degree)  # no in-degree is larger
    column = child_rng(seed, STREAMS["column"])

    def block(in_deg, total, q):
        u = ring.get("draws", total)
        if total:  # the uniforms of the follower draws
            column.random(total, out=u)
        # fl(z * q) is monotone in q: the largest term is that of the largest q
        at = z * q.max() if floor is None else floor
        rows = None
        if at > -math.inf:
            x = _draw_bound(follower, u.max()) if total else 0.0
            rows = np.flatnonzero(q >= _least_reaching(at, z, c * x, most))
            bound = _sum_bounds(in_deg[rows], z * q[rows], c * x, most)
            # a bound of nan (0 * inf, where a draw overflows) keeps its row
            rows = rows[np.logical_not(bound < at)]
            if len(rows) == len(q):
                rows = None
        if rows is None:  # every row: the draws transform in place
            picked, deg = pareto_transform(follower, u), in_deg
        else:
            picked = (pareto_transform(follower, u[_picked_positions(in_deg, rows)])
                      if len(rows) else u[:0])
            deg = in_deg[rows]
        # reduceat allocates the follower terms: given out=, it holds the GIL,
        # and the kernels of the replication threads at --jobs 1 would no
        # longer reduce in parallel
        return (*_segment_reduce(picked, deg, np.add, np.maximum), rows)

    return block


def _pair_blocks(config: RecursionConfig, n: int, seed: int, block_rows: int,
                 ring: BlockRing, floor: float | None):
    """The blocks ``(sums, maxes, rows, q)`` of :func:`aggregate_pair_blocks`,
    their arrays in ``ring``, drawn and reduced one at a time, as the
    consumer asks for them, on its thread.

    Each block takes its in-degrees from :func:`_in_degree_blocks`, its raw
    preference draws ``q`` as the next draws of the call's one
    ``preference`` generator, and its follower terms from its column kind's
    function, :func:`_iid_followers` (refined against ``floor``) or
    :func:`_column_block` (every row), to which it adds the preference term.
    The blocks come in row order, so every value is that of the whole path
    drawn at once, bit for bit.  I.i.d. columns read ``block_rows``
    in-degrees at a time, cut at ``BLOCK_DRAWS`` follower draws; explicit
    columns read ``STREAM_BLOCK_ROWS`` whatever ``block_rows``, after a
    first pass over a power-law in-degree for the largest, the number of
    columns to draw.
    """
    if config.all_iid_columns():
        followers, cap = _iid_followers(config, seed, ring, floor), BLOCK_DRAWS
    else:
        block_rows, cap = STREAM_BLOCK_ROWS, math.inf
        most = config.fixed_in_degree
        if most is None:
            most = max(int(in_deg.max()) for in_deg, _ in
                       _in_degree_blocks(config, n, seed, block_rows, ring))
        columns = _follower_columns(config, seed, most)

        def followers(in_deg, total, q):
            return (*_column_block(columns, len(in_deg), ring, in_deg=in_deg), None)

    preference = child_rng(seed, STREAMS["preference"])
    for in_deg, total in _in_degree_blocks(config, n, seed, block_rows, ring, cap):
        q = sample_pareto(config.preference_tail, len(in_deg), preference,
                          out=ring.get("q", len(in_deg)))
        f_sum, f_max, rows = followers(in_deg, total, q)
        yield (*_add_preference(config, f_sum, f_max, q if rows is None else q[rows]),
               rows, q)


def _check_pair_args(n: int, seed: int) -> None:
    """Refuse a path length below 1 or a negative seed at the call of a
    block source, not at its first block."""
    if n < 1:
        raise ParameterError(f"path length must be >= 1, got {n}")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")


def aggregate_pair_blocks(config: RecursionConfig, n: int, seed: int,
                          ring: BlockRing | None = None, floor: float = -math.inf):
    """Both aggregates of length ``n``, from one set of draws, one block of
    rows at a time and in row order: yields ``(sums, maxes, rows, q)`` per
    block, ``q`` the block's raw preference draws and ``rows`` the ascending
    positions within the block of the rows whose values ``sums`` and
    ``maxes`` hold (``None`` for every row), each array valid until the
    next block is asked for.  Every row left out has its sum and max values
    below ``floor``.

    The blocks are those of :func:`_pair_blocks` at ``STREAM_BLOCK_ROWS``
    rows: with i.i.d. columns only the rows that can reach a finite floor
    are refined, with explicit columns every row is.  Their arrays live in
    ``ring`` (a fresh one by default).  ``n`` and ``seed`` are checked at
    the call.
    """
    _check_pair_args(n, seed)
    return _pair_blocks(config, n, seed, STREAM_BLOCK_ROWS,
                        BlockRing() if ring is None else ring, floor)


def _drain(blocks, n: int) -> tuple[np.ndarray, ...]:
    """The ``n``-row arrays that the blocks of a block source concatenate to,
    one per array of a block.  Each block is copied into its rows as it
    comes, since the next block reuses the ring's arrays."""
    whole, start = None, 0
    for block in blocks:
        if whole is None:
            whole = [np.empty(n, a.dtype) for a in block]
        stop = start + len(block[0])
        for out, a in zip(whole, block):
            out[start:stop] = a
        start = stop
    return tuple(whole)


class AggregatePair(NamedTuple):
    """Both aggregates of length ``n`` as whole paths, with the raw
    preference draws they were built from."""

    sum_values: np.ndarray
    max_values: np.ndarray
    preference: np.ndarray  # raw q_t draws, unscaled


def sample_aggregate_pair(config: RecursionConfig, n: int, seed: int) -> AggregatePair:
    """The blocks of :func:`aggregate_pair_blocks` drained into whole paths."""
    blocks = aggregate_pair_blocks(config, n, seed)
    return AggregatePair(*_drain(((sums, maxes, q) for sums, maxes, _, q in blocks), n))


def sample_aggregate(config: RecursionConfig, n: int, seed: int) -> AggregatePath:
    """Simulate the aggregate selected by ``config.aggregate``: the blocks of
    :func:`aggregate_pair_blocks`, each copied into its rows of one path."""
    pick = 0 if config.aggregate == SUM else 1
    blocks = aggregate_pair_blocks(config, n, seed)
    (values,) = _drain((block[pick:pick + 1] for block in blocks), n)
    return AggregatePath(values=values, config=config, seed=seed, n=n)


def write_path_csv(fileobj, config: RecursionConfig, n: int, seed: int,
                   blocks) -> None:
    """Write ``sample_aggregate(config, n, seed).write_csv(fileobj)``, byte
    for byte, from ``blocks``, those of ``aggregate_pair_blocks(config, n,
    seed)``, so that no path is held."""
    _write_path_header(fileobj, config, n, seed)
    for sums, maxes, *_ in blocks:
        write_rows(fileobj, "%.17g\n", sums if config.aggregate == SUM else maxes)


def pair_maxima(config: RecursionConfig, n: int, seed: int, calibration: TailSample, *,
                ring: BlockRing | None = None) -> tuple[float, float]:
    """The largest sum and the largest max value of the pair
    ``aggregate_pair_blocks(config, n, seed)``; each block's preference
    draws are partitioned in place and feed ``calibration`` their top.

    No path is built: the blocks are those of :func:`_pair_blocks` at
    ``MAXIMA_BLOCK_ROWS`` rows and no floor, so with i.i.d. columns each
    block bounds its rows and refines the few that can reach its largest
    preference term.  The buffers live in ``ring``; successive calls may
    share it and ``calibration``, which then keeps the top of all their draws.
    """
    _check_pair_args(n, seed)
    sum_max = max_max = -np.inf
    for sums, maxes, _, q in _pair_blocks(config, n, seed, MAXIMA_BLOCK_ROWS,
                                          BlockRing() if ring is None else ring, None):
        sum_max, max_max = max(sum_max, sums.max()), max(max_max, maxes.max())
        k = len(q) - min(calibration.top, len(q))
        q.partition(k)  # the block is done with its preference draws
        calibration.feed(q[k:])
    return float(sum_max), float(max_max)


def preference_blocks(config: RecursionConfig, n: int, seed: int,
                      ring: BlockRing | None = None):
    """The raw preference draws of the pair ``aggregate_pair_blocks(config,
    n, seed)`` alone, ``STREAM_BLOCK_ROWS`` rows at a time and in row order,
    each block the ring's ``q`` array (a fresh ring by default), valid until
    the next is asked for.  The pair draws its blocks' preference values as
    the next draws of the ``preference`` stream, one a row, so these are its
    values bit for bit.  ``n`` and ``seed`` are checked at the call."""
    _check_pair_args(n, seed)
    ring = BlockRing() if ring is None else ring
    width = min(STREAM_BLOCK_ROWS, n)
    rng = child_rng(seed, STREAMS["preference"])
    return (sample_pareto(config.preference_tail, size, rng, out=ring.get("q", size))
            for size in (min(width, n - start) for start in range(0, n, width)))


def weighted_pair_blocks(components: list[tuple[float, SequenceSpec]], n: int, seed: int,
                         ring: BlockRing | None = None):
    """Fixed-length weighted sum and maximum of ``l`` stationary columns,
    ``sum_i z_i * Y_t^(i)`` and ``max_i z_i * Y_t^(i)`` with mutually
    independent columns drawn from disjoint RNG streams, one block of rows
    at a time and in row order, ``STREAM_BLOCK_ROWS`` rows a block
    (:func:`_column_block`): yields ``(sums, maxes)`` per block, arrays of
    ``ring`` (a fresh one by default) valid until the next block is asked
    for.  The components, ``n`` and ``seed`` are checked at the call."""
    if len(components) == 0:
        raise ParameterError("at least one weighted component required")
    _check_pair_args(n, seed)
    for z, _ in components:
        if not z > 0:
            raise ParameterError(f"weights must be positive, got {z}")
    columns = [SequenceStream(seq, child_rng(seed, STREAMS["column"], i))
               for i, (_, seq) in enumerate(components, start=1)]
    ring, weights = BlockRing() if ring is None else ring, [z for z, _ in components]
    width = min(STREAM_BLOCK_ROWS, n)
    return (_column_block(columns, min(width, n - start), ring, weights=weights)
            for start in range(0, n, width))


def sample_weighted_pair(components: list[tuple[float, SequenceSpec]], n: int, seed: int):
    """The blocks of :func:`weighted_pair_blocks` drained into whole paths:
    ``(sums, maxes)``, each of length ``n``."""
    return _drain(weighted_pair_blocks(components, n, seed), n)


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
    support = np.arange(1, config.in_degree.n_max + 1, dtype=float)
    return float(np.dot(support, _power_law_pmf(config.in_degree)))


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


def compare_tail_sum_max(
    config: RecursionConfig, n: int, thresholds: list[float], seed: int
) -> list[TailRatioRow]:
    """Paired-seed ratio ``P{sum > x} / P{max > x}`` per upper quantile.

    Thresholds are quantile levels in (0.9, 1), resolved on the max path
    (nearest rank).  The confidence band is a Wald interval on the log
    ratio using the paired exceedance counts.

    The pair is reduced block by block as :func:`aggregate_pair_blocks`
    yields it, so memory is O(block + count) with
    ``count = n - min(rank)`` the largest number of max values a threshold
    needs.  A :class:`TailSample` keeps the top ``count`` max values, and
    another the sum values at or above its running floor, a lower bound on
    every threshold, so thresholds and counts equal those of the whole path.
    """
    for qv in thresholds:
        if not (0.9 < qv < 1.0):
            raise ParameterError(f"thresholds must be upper quantiles in (0.9, 1), got {qv}")
    rows: list[TailRatioRow] = []
    if not thresholds:
        return rows
    _check_pair_args(n, seed)
    ranks = [nearest_rank_index(qv, n) for qv in thresholds]
    count = n - min(ranks)
    max_tail = TailSample(count)
    sum_tail = TailSample(count, floor_of=max_tail)
    for sums, maxes, *_ in aggregate_pair_blocks(config, n, seed):
        max_tail.feed(maxes)
        sum_tail.feed(sums)
    # descending top of the max path: rank idx (ascending) sits at n - 1 - idx
    top_max = max_tail.largest(count)
    for qv, idx in zip(thresholds, ranks):
        x = float(top_max[n - 1 - idx])
        k_sum = len(sum_tail.above(x))
        k_max = len(max_tail.above(x))
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
