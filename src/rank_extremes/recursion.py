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

import functools
import io
import multiprocessing
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError, ParameterError, ResourceError
from .estimators import nearest_rank_index, upper_order_statistics
from .heavytail import (
    DependenceSpec,
    InDegreeSpec,
    SequenceSpec,
    SequenceStream,
    TailSpec,
    _power_law_tables,
    pareto_transform,
    sample_pareto,
    sample_power_law_int,
)
from .rng import STREAMS, child_rng, child_rng_at
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


def _draw_in_degrees(config: RecursionConfig, n: int, rng: np.random.Generator, *,
                     out=None, work=None) -> np.ndarray:
    """``n`` in-degrees, written into ``out`` when given (``work`` as in
    :func:`sample_power_law_int`)."""
    if config.fixed_in_degree is None:
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
    if counts.min() < 1:
        raise ValueError("every segment of a nonempty reduction needs a value")
    offsets = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    return tuple(ufunc.reduceat(values, offsets) for ufunc in ufuncs)


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(s, s + l)`` over the ``(starts, lengths)`` pairs."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1]) + np.repeat(starts - (ends - lengths), lengths)


class BlockRing:
    """The block buffers of the blocked kernels: named arrays in each slot of
    a ring of blocks in flight, each grown to the largest size asked of it.
    A ring given to successive calls allocates its arrays once, so a run of
    replications does not map and fault in fresh pages for each.  A ring
    serves one call at a time, on the thread that runs the call.

    ``out`` maps names to arrays of all the rows of a call: a block's array
    of such a name is its rows of that array, written in place.
    """

    def __init__(self, out: dict | None = None):
        self._slots = []
        self._out = out or {}

    def get(self, slot: int, name: str, size: int, dtype=np.float64) -> np.ndarray:
        """The first ``size`` values of the array ``name`` of slot ``slot``."""
        while len(self._slots) <= slot:
            self._slots.append({})
        arrays = self._slots[slot]
        a = arrays.get(name)
        if a is None or len(a) < size:
            # by a quarter at least: a follower count a little above the
            # last one grows it once
            grown = size if a is None else max(size, len(a) * 5 // 4)
            a = arrays[name] = np.empty(grown, dtype)
        return a[:size]

    def rows(self, slot: int, name: str, rows: slice, dtype=np.float64) -> np.ndarray:
        """The array ``name`` of the block of ``rows``: those rows of
        ``out[name]`` when given, else an array of slot ``slot``."""
        if name in self._out:
            return self._out[name][rows]
        return self.get(slot, name, rows.stop - rows.start, dtype)


# Rows per block of the explicit-column kernel: 512 KB for each float64 block.
COLUMN_BLOCK_ROWS = 2**16

# Rows per block of the i.i.d.-column kernel: 512 KB for each float64 array
# of a block, plus the block's follower draws.
PAIR_BLOCK_ROWS = 2**16


def _column_threads(tasks: int) -> int:
    """Threads that draw the blocks of a kernel: one per CPU this process
    may run on, and no more than there are ``tasks`` to run at once.  A
    worker process of a pool (a ``--jobs`` replication) draws on one thread,
    since its siblings already take the other CPUs."""
    if multiprocessing.parent_process() is not None:
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # the call is Linux-only
        cpus = os.cpu_count() or 1
    return min(cpus, tasks)


def _in_order(tasks, threads: int, ahead: int):
    """The results of the callables that the iterable ``tasks`` yields, in
    its order, each callable run on a pool of ``threads`` threads.

    Task ``i`` is taken from ``tasks`` and submitted only once result
    ``i - ahead`` was yielded and the consumer asked for the next one.  So
    when each task takes its buffers, as it is taken, from a ring of
    ``ahead`` slots, a yielded block stays valid until the consumer asks for
    the next one: that takes the task ``ahead`` places later, into the
    block's slot.
    The pool lives as long as the iteration; an exception from a task
    propagates unchanged once every thread is joined.
    """
    pending = deque()
    tasks = iter(tasks)
    with ThreadPoolExecutor(threads) as pool:
        while True:
            if len(pending) == ahead:
                yield pending.popleft().result()
            task = next(tasks, None)
            if task is None:
                break
            pending.append(pool.submit(task))
        while pending:
            yield pending.popleft().result()


class _DrawnColumn:
    """A column drawn whole, handed out block by block like a
    :class:`SequenceStream`."""

    lag = 0

    def __init__(self, values: np.ndarray):
        self.values, self.start = values, 0

    def fill(self, out, work=None):
        self.start += len(out)
        return self.values[self.start - len(out) : self.start]


def _column_sum_max(columns, n: int, *, weights=None, in_deg=None):
    """Sums and maxima over the rows of ``n``-row columns, ``(sums, maxes)``.

    ``columns[j]`` is a :class:`SequenceStream` (or a :class:`_DrawnColumn`).
    Column ``j`` enters row ``t`` scaled by ``weights[j]`` when weights are
    given, and only where ``in_deg[t] > j`` when in-degrees are given.

    The columns are drawn in blocks of ``COLUMN_BLOCK_ROWS`` rows by
    :func:`_in_order` on ``_column_threads`` threads, into the slots of a
    :class:`BlockRing` of ``min(2 × threads, columns)`` slots, one per block
    ahead of the reduction.  The calling thread reduces row block after row block
    and, within one, the columns in order, so every sum keeps its rounding
    order.  The ring holds no more slots than there are columns, so a
    column's next block is drawn only after its previous one was reduced.
    """
    sums = np.zeros(n)
    maxes = np.zeros(n)
    if not columns:
        return sums, maxes
    # every row includes the columns below the smallest in-degree
    min_n = len(columns) if in_deg is None else int(in_deg.min())
    width = min(COLUMN_BLOCK_ROWS, n)
    lag = max(col.lag for col in columns)
    tasks = [(j, slice(start, min(start + width, n)))
             for start in range(0, n, width) for j in range(len(columns))]
    threads = _column_threads(len(columns))
    ring, slots = BlockRing(), min(2 * threads, len(columns))

    def draws():
        for i, (j, rows) in enumerate(tasks):
            size = rows.stop - rows.start
            work = ring.get(i % slots, "work", size + lag) if lag else None
            yield functools.partial(columns[j].fill, ring.get(i % slots, "out", size), work)

    drawn = _in_order(draws(), threads, slots)
    for (j, rows), col in zip(tasks, drawn):
        if weights is not None and weights[j] != 1.0:  # a weight of 1.0 changes no value
            col *= weights[j]
        s, m = sums[rows], maxes[rows]
        if j < min_n:
            s += col
            np.maximum(m, col, out=m)
        else:
            mask = in_deg[rows] > j  # the rows whose in-degree includes column j + 1
            np.add(s, col, out=s, where=mask)
            np.maximum(m, col, out=m, where=mask)
    return sums, maxes


def _column_contributions(config, n, seed, in_deg):
    """Follower sum/max terms from explicit stationary columns, built in
    row blocks by :func:`_column_sum_max`.

    Returns ``(sums, maxes, in_deg)``; under adversarial coupling the
    returned in-degrees are a rearranged copy and the caller's array is
    left as it was.
    """
    max_n = int(in_deg.max()) if len(in_deg) else 0
    columns = [SequenceStream(SequenceSpec(config.follower_tail, config.column_dep(j)),
                              child_rng(seed, STREAMS["column"], j))
               for j in range(1, max_n + 1)]
    if config.coupling == COUPLING_ADVERSARIAL and max_n:
        # Comonotone rearrangement: large in-degrees align with large
        # first-column values while both marginals are preserved.  It needs
        # the whole first column, whose blocks the reduction then takes.
        first = columns[0].fill(np.empty(n))
        order = np.argsort(first, kind="stable")
        rearranged = np.empty(n, dtype=np.int64)
        rearranged[order] = np.sort(in_deg)
        in_deg = rearranged
        columns[0] = _DrawnColumn(first)
    return (*_column_sum_max(columns, n, in_deg=in_deg), in_deg)


def _add_preference(config, f_sum, f_max, q, sums=None, maxes=None):
    """``c * f_sum + pref_term`` and ``max(c * f_max, pref_term)``, with
    ``pref_term = (1 - c) * q``, written into ``sums`` and ``maxes`` (in
    place over the follower terms when not given)."""
    sums = f_sum if sums is None else sums
    maxes = f_max if maxes is None else maxes
    c = config.damping
    pref_term = config.z_star * q
    np.multiply(c, f_sum, out=sums)
    np.add(sums, pref_term, out=sums)
    np.multiply(c, f_max, out=maxes)
    np.maximum(maxes, pref_term, out=maxes)
    return sums, maxes


def _iid_blocks(config: RecursionConfig, n: int, seed: int, block_rows: int,
                ring: BlockRing, block, names: dict):
    """The results of ``block(in_deg, start, follow, draws, *rest)`` for the
    blocks of ``block_rows`` rows of an i.i.d.-column config, in row order.

    With i.i.d. columns the values entering a row are fresh draws, so row
    ``t`` takes the next ``in_deg[t]`` draws of the one ``column`` stream;
    this has exactly the law of the column construction.  The calling
    thread draws the in-degrees block after block.  Each block's draws and
    reduction then run by :func:`_in_order` on ``_column_threads`` threads,
    at most ``2 × threads`` blocks ahead of the consumer.  A block starting
    at row ``start`` takes its preference draws from offset ``start`` of the
    ``preference`` stream, and its ``len(draws)`` follower draws from offset
    ``follow``, the sum of the earlier blocks' in-degrees, of the ``column``
    stream (:func:`child_rng_at`).  Every row lies inside one block, so every
    value equals that of the whole path drawn at once, bit for bit, whatever
    the block size and thread count.

    The calling thread takes block ``i``'s arrays from slot
    ``i % (2 × threads)`` of ``ring``: ``in_deg``, ``draws`` for its
    follower draws, and ``rest``, an array of its rows for each
    ``name: dtype`` of ``names``.  (What a drawing thread allocates returns,
    once freed, to its own malloc arena, which keeps it resident.)  It draws
    the in-degrees one block at a time, so their scratch is one array, in
    slot 0.  A yielded block stays valid until the consumer asks for the
    next one.
    """
    threads = _column_threads(-(-n // block_rows))
    slots = 2 * threads

    def tasks():
        deg_rng = child_rng(seed, STREAMS["in_degree"])
        follow = 0
        for i, start in enumerate(range(0, n, block_rows)):
            rows, slot = slice(start, min(start + block_rows, n)), i % slots
            in_deg = _draw_in_degrees(config, rows.stop - start, deg_rng,
                                      out=ring.rows(slot, "in_deg", rows, np.int64),
                                      work=ring.get(0, "work", rows.stop - start, np.intp))
            total = int(in_deg.sum())
            rest = [ring.rows(slot, name, rows, dtype) for name, dtype in names.items()]
            yield functools.partial(block, in_deg, start, follow,
                                    ring.get(slot, "draws", total), *rest)
            follow += total

    return _in_order(tasks(), threads, slots)


def _iid_pair_blocks(config: RecursionConfig, n: int, seed: int, block_rows: int,
                     ring: BlockRing):
    """Both aggregates of an i.i.d.-column config, ``block_rows`` rows at a
    time and in row order (:func:`_iid_blocks`): yields
    ``(sums, maxes, in_deg, q)`` per block, arrays of ``ring`` of those
    names (the rows of its ``out`` arrays where it has them).
    """

    def block(in_deg, start, follow, draws, sums, maxes, q):
        sample_pareto(config.preference_tail, len(q),
                      child_rng_at(seed, start, STREAMS["preference"]), out=q)
        if len(draws):
            sample_pareto(config.follower_tail, len(draws),
                          child_rng_at(seed, follow, STREAMS["column"]), out=draws)
        # reduceat allocates the follower terms: given out=, it holds the GIL,
        # and the blocks would no longer reduce in parallel
        f_sum, f_max = _segment_reduce(draws, in_deg, np.add, np.maximum)
        return (*_add_preference(config, f_sum, f_max, q, sums, maxes), in_deg, q)

    return _iid_blocks(config, n, seed, block_rows, ring, block,
                       dict.fromkeys(("sums", "maxes", "q"), np.float64))


# Relative error allowed for NumPy's ``pow``, which need not round correctly
# nor be monotone: far above the few units of 2^-53 of libm's and SVML's.
POW_MARGIN = 2.0**-40


def _draw_bound(spec: TailSpec, u_max: float) -> float:
    """At least the Pareto value of every uniform up to ``u_max``: that of
    ``u_max``, times ``1 + POW_MARGIN``.  Each step of the transform is
    monotone in the uniform, ``pow`` up to its rounding error."""
    return float(pareto_transform(spec, np.array([u_max]))[0]) * (1.0 + POW_MARGIN)


def _sum_bounds(in_deg, pref, cx: float, most: int, out) -> np.ndarray:
    """At least each row's computed sum ``fl(fl(c * F) + P)``, where ``F``
    is the rounded sum of the row's ``N <= most`` draws, each at most ``X``,
    ``P`` its preference term and ``cx = c * X``: ``fl(fl(N * w) + P)``,
    written into ``out``, with ``w = cx * (1 + (most + 1) * 2^-50)``.

    The margin is far above the ``N`` roundings of ``fl(c * F)`` and the
    four of ``fl(N * w)``, so ``fl(N * w) >= fl(c * F)``; a row without
    draws has ``F = 0``.  Rounding is monotone, so adding ``P`` to both
    keeps their order.
    """
    np.multiply(in_deg, cx * (1.0 + (most + 1) * 2.0**-50), out=out)
    return np.add(out, pref, out=out)


def _picked_positions(counts: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The positions of the draws of ``rows`` (ascending, nonempty) among
    draws that fill rows of ``counts`` in order, row after row."""
    # each row's first position: the counts before the first row, then the
    # sums of the counts between consecutive rows
    between = np.add.reduceat(counts, rows)
    return _ranges(np.cumsum(between) - between + counts[: rows[0]].sum(), counts[rows])


def _iid_block_maxima(config: RecursionConfig, n: int, seed: int, block_rows: int,
                      top: int, ring: BlockRing):
    """Each block's largest sum value, largest max value and top ``top``
    raw preference draws, ``(sum_max, max_max, q_top)``, of the pair that
    :func:`_iid_pair_blocks` draws, bit for bit: bound and refine.

    A block draws its in-degrees, its preference values and only the
    uniforms of its follower draws.  The transform of its largest uniform
    bounds every follower draw by ``X`` (:func:`_draw_bound`), and so each
    row's sum by :func:`_sum_bounds`.  No sum falls below its preference
    term ``P``, since ``fl(c * F) >= 0``, so the largest ``P`` is a floor of
    the block's largest sum.  Only the rows whose bound reaches the floor
    are transformed and reduced, each as the whole block reduces it.  The
    largest max value is the largest ``P`` while ``fl(c * X)`` is below it,
    and is taken from all draws otherwise.

    The arrays of a block live in its slot of ``ring``; the preference draws
    are partitioned in place to take their top ``top``.
    """
    c, follower = config.damping, config.follower_tail
    most = (config.in_degree.n_max if config.fixed_in_degree is None
            else config.fixed_in_degree)  # no in-degree is larger

    def block(in_deg, start, follow, u, q, pref, bound, below):
        rows = len(in_deg)
        sample_pareto(config.preference_tail, rows,
                      child_rng_at(seed, start, STREAMS["preference"]), out=q)
        np.multiply(config.z_star, q, out=pref)
        floor = pref.max()
        x = 0.0
        if len(u):  # the uniforms of the follower draws
            child_rng_at(seed, follow, STREAMS["column"]).random(len(u), out=u)
            x = _draw_bound(follower, u.max())
        _sum_bounds(in_deg, pref, c * x, most, bound)
        # a bound of nan (0 * inf, where a draw overflows) keeps its row
        np.less(bound, floor, out=below)
        reach = np.flatnonzero(np.logical_not(below, out=below))
        picked = pareto_transform(follower, u[_picked_positions(in_deg, reach)])
        (sums,) = _segment_reduce(picked, in_deg[reach], np.add)
        np.multiply(c, sums, out=sums)
        np.add(sums, pref[reach], out=sums)
        max_max = floor
        if len(u) and not c * x < floor:
            max_max = max(c * pareto_transform(follower, u).max(), floor)
        k = rows - min(top, rows)
        q.partition(k)  # the block is done with its preference draws
        return sums.max(), max_max, q[k:].copy()

    return _iid_blocks(config, n, seed, block_rows, ring, block,
                       dict(q=np.float64, pref=np.float64, bound=np.float64, below=np.bool_))


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
        sums, maxes, q = np.empty(n), np.empty(n), np.empty(n)
        in_deg = np.empty(n, dtype=np.int64)
        ring = BlockRing(out=dict(sums=sums, maxes=maxes, in_deg=in_deg, q=q))
        for _ in _iid_pair_blocks(config, n, seed, PAIR_BLOCK_ROWS, ring):
            pass  # each block is written into its rows of the outputs
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


def pair_maxima(config: RecursionConfig, n: int, seed: int, top: int, *,
                ring: BlockRing | None = None) -> tuple[float, float, np.ndarray]:
    """The largest sum and the largest max value of the pair
    ``sample_aggregate_pair(config, n, seed)``, and the ``min(top, n)``
    largest of its raw preference draws, in descending order.

    With i.i.d. columns no path is built: each block of
    :func:`_iid_block_maxima` bounds its rows and refines the few that can
    reach its maxima.  Its buffers live in ``ring``, which successive calls
    may share.
    """
    _check_pair_args(config, n)
    if top < 1:
        raise ParameterError(f"top must be >= 1, got {top}")
    top = min(top, n)
    if not config.all_iid_columns():
        pair = sample_aggregate_pair(config, n, seed)
        return (float(pair.sum_values.max()), float(pair.max_values.max()),
                upper_order_statistics(pair.preference, top))
    sum_maxes, max_maxes, tops = zip(*_iid_block_maxima(
        config, n, seed, PAIR_BLOCK_ROWS, top, BlockRing() if ring is None else ring))
    return (float(max(sum_maxes)), float(max(max_maxes)),
            upper_order_statistics(np.concatenate(tops), top))


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
    for z, _ in components:
        if not z > 0:
            raise ParameterError(f"weights must be positive, got {z}")
    columns = [SequenceStream(seq, child_rng(seed, STREAMS["column"], i))
               for i, (_, seq) in enumerate(components, start=1)]
    return _column_sum_max(columns, n, weights=[z for z, _ in components])


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


def compare_tail_sum_max(
    config: RecursionConfig, n: int, thresholds: list[float], seed: int
) -> list[TailRatioRow]:
    """Paired-seed ratio ``P{sum > x} / P{max > x}`` per upper quantile.

    Thresholds are quantile levels in (0.9, 1), resolved on the max path
    (nearest rank).  The confidence band is a Wald interval on the log
    ratio using the paired exceedance counts.

    An i.i.d.-column config is generated and reduced by
    :func:`_iid_pair_blocks`, ``PAIR_BLOCK_ROWS`` rows at a time in the
    slots of one :class:`BlockRing`, so memory is O(threads * block + count)
    with ``count = n - min(rank)`` the largest number of max values a
    threshold needs.  The reduction keeps the top ``count`` max values and
    the sum values above their running ``count``-th largest, a lower bound
    on every threshold, so thresholds and counts equal those of the whole
    path.  Explicit-column configs are built whole and reduced as one block.
    """
    for qv in thresholds:
        if not (0.9 < qv < 1.0):
            raise ParameterError(f"thresholds must be upper quantiles in (0.9, 1), got {qv}")
    rows: list[TailRatioRow] = []
    if not thresholds:
        return rows
    _check_pair_args(config, n)
    ranks = [nearest_rank_index(qv, n) for qv in thresholds]
    count = n - min(ranks)
    if config.all_iid_columns():
        blocks = _iid_pair_blocks(config, n, seed, PAIR_BLOCK_ROWS, BlockRing())
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
