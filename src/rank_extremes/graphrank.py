"""Deterministic rank computation on explicit directed graphs.

Provides power-law random graph generation (configuration-model style on
the in-degrees), PageRank power iteration, the max-linear rank fixed
point, and random-walk first hitting times to top-ranked nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, ParameterError
from .heavytail import InDegreeSpec, sample_power_law_int
from .recursion import _ranges
from .rng import STREAMS, child_rng
from .textio import read_rows, write_rows


@dataclass(frozen=True)
class DirectedGraph:
    """Immutable directed graph in edge-array form: ``src[e] -> dst[e]`` for
    each edge ``e``, in the order given, and each node's out-degree."""

    n: int
    src: np.ndarray = field(repr=False)
    dst: np.ndarray = field(repr=False)
    out_degree: np.ndarray = field(repr=False)

    @classmethod
    def from_edges(cls, n: int, src, dst) -> "DirectedGraph":
        if n < 1:
            raise ParameterError(f"node count must be >= 1, got {n}")
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise ParameterError("src and dst must have equal length")
        if len(src) and (src.min() < 0 or src.max() >= n or dst.min() < 0 or dst.max() >= n):
            raise ParameterError("edge endpoints out of range")
        return cls(n=n, src=src, dst=dst, out_degree=np.bincount(src, minlength=n))

    @property
    def edge_count(self) -> int:
        return len(self.src)

    def write_edge_list(self, fileobj) -> None:
        """Plain text edge list, one ``src dst`` pair per line, 0-based ids."""
        write_rows(fileobj, "%d %d\n", self.src, self.dst)

    @classmethod
    def read_edge_list(cls, fileobj, n: int | None = None) -> "DirectedGraph":
        """Graph of an edge list; blank lines and ``#`` comments are skipped.

        ``n`` defaults to one more than the largest node id.
        """
        src, dst = read_rows(fileobj, 2, np.int64).T.copy()
        if n is None:
            n = int(max(src.max(initial=-1), dst.max(initial=-1))) + 1
        return cls.from_edges(n, src, dst)


@dataclass(frozen=True)
class RankVector:
    """Per-node scores with iteration diagnostics."""

    scores: np.ndarray
    iterations: int
    residual: float
    residuals: tuple[float, ...] = ()

    def top_nodes(self, count: int) -> np.ndarray:
        """Highest-scoring ``count`` node ids, ties broken by node index."""
        order = np.lexsort((np.arange(len(self.scores)), -self.scores))
        return order[:count]

    def write_csv(self, fileobj) -> None:
        fileobj.write("node_id,score\n")
        write_rows(fileobj, "%d,%.17g\n", np.arange(len(self.scores)), self.scores)


def _distinct_draws(rng: np.random.Generator, n: int, counts: np.ndarray):
    """``counts[t]`` distinct uniform ids out of ``n`` for every owner ``t``.

    Returns ``(owner, ids)`` in owner-major blocks.  All ids are drawn at
    once; one sort of the key ``owner * n + id`` finds the repeats, which
    are redrawn in rounds, and each later round sorts only the blocks of
    owners that still held a repeat.  A redraw repeats with probability
    below ``counts[t] / n``.
    """
    owner = np.repeat(np.arange(len(counts)), counts)
    ids = rng.integers(0, n, size=len(owner))
    starts = np.cumsum(counts) - counts
    slots = np.arange(len(owner))
    while len(slots):
        base = owner[slots] * n
        # blocks keep their place and length in the sorted keys, so each
        # key goes back into its owner's block (sorted within it)
        keys = np.sort(base + ids[slots])
        ids[slots] = keys - base
        redo = slots[1:][keys[1:] == keys[:-1]]
        if not len(redo):
            break
        ids[redo] = rng.integers(0, n, size=len(redo))
        bad = np.unique(owner[redo])
        slots = _ranges(starts[bad], counts[bad])
    return owner, ids


def gen_power_law_graph(n: int, alpha: float, seed: int) -> DirectedGraph:
    """Random digraph whose in-degrees follow the truncated power law.

    Target in-degrees ``d`` are drawn first from ``InDegreeSpec(alpha,
    n - 1)``; each target's sources are then a set of ``d`` distinct nodes
    (configuration-model style, self-loops allowed).  A target with
    ``d <= n/2`` draws its sources and one with ``d > n/2`` draws the
    ``n - d`` nodes it excludes, so every redraw of a repeated id succeeds
    with probability at least 1/2 (:func:`_distinct_draws`).  Which ids are
    kept or redrawn depends only on which ids are equal, never on their
    values, so the procedure treats every label alike and each target's
    source set is uniform over the ``d``-subsets of the nodes.  Edges come
    in target order.  Nodes left dangling then receive one uniform out-edge
    each, appended last, so every out-degree is at least 1.
    """
    if n < 2:
        raise ParameterError(f"need at least 2 nodes, got {n}")
    spec = InDegreeSpec(alpha=alpha, n_max=n - 1)
    rng = child_rng(seed, STREAMS["graph"])
    degrees = sample_power_law_int(spec, n, rng)
    dense = 2 * degrees > n
    owner, ids = _distinct_draws(rng, n, np.where(dense, n - degrees, degrees))
    excluded = dense[owner]
    # one row per dense target, whose sources are the ids it did not
    # exclude; each row holds over n/2 sources, so this is < 2 bytes an edge
    keep = np.ones((int(dense.sum()), n), dtype=bool)
    keep[(np.cumsum(dense) - 1)[owner[excluded]], ids[excluded]] = False
    dst = np.repeat(np.arange(n), degrees)
    src = np.empty(len(dst), dtype=np.int64)
    from_dense = dense[dst]
    src[from_dense] = np.nonzero(keep)[1]
    src[~from_dense] = ids[~excluded]
    out_degree = np.bincount(src, minlength=n)
    dangling = np.flatnonzero(out_degree == 0)
    if len(dangling):
        repair_dst = rng.integers(0, n, size=len(dangling))
        src = np.concatenate([src, dangling])
        dst = np.concatenate([dst, repair_dst])
        out_degree[dangling] = 1
    # the edges are in range by construction, and out_degree counts them
    return DirectedGraph(n=n, src=src, dst=dst, out_degree=out_degree)


def _validate_rank_inputs(g: DirectedGraph, c: float, q: np.ndarray):
    if not 0 < c < 1:
        raise ParameterError(f"damping must be in (0, 1), got {c}")
    q = np.asarray(q, dtype=float)
    if q.shape != (g.n,):
        raise ParameterError(f"preference vector must have length {g.n}")
    if np.any(q < 0) or not np.isclose(q.sum(), 1.0, atol=1e-9):
        raise ParameterError("preference vector must be nonnegative and sum to 1")
    return q


def _inverse_out_degree(g: DirectedGraph) -> np.ndarray:
    """``1/D_j`` for every node ``j``, gathered along the edges as the weight
    of each edge out of ``j`` (1 for a node without out-edges, which no edge
    reads)."""
    return 1.0 / np.maximum(g.out_degree, 1)


def _in_edges(g: DirectedGraph, inv_degree: np.ndarray):
    """``(src, dst, rep, rep_weight)``: each distinct edge once, in (source,
    target) order; ``rep`` indexes the repeated ones, whose ``rep_weight``
    adds their weights ``inv_degree[src]`` in turn, as a CSR matrix sums
    duplicates."""
    key = np.sort(g.src * g.n + g.dst)
    first = np.ones(len(key), dtype=bool)
    first[1:] = key[1:] != key[:-1]
    run = np.cumsum(first) - 1
    weight = np.bincount(run, inv_degree[key // g.n])
    rep = np.flatnonzero(np.bincount(run) > 1)
    del run  # freed, as the whole key below, before the distinct edges are split
    key = key[first]
    return (*np.divmod(key, g.n), rep, weight[rep])


def _fixed_point(step, r0, distance, tol, max_iter, what) -> RankVector:
    """Iterate ``r <- step(r)`` from ``r0`` until ``distance(|step(r) - r|)``
    (``np.sum`` for the L1 norm, ``np.max`` for the max norm) is below ``tol``.
    Raises :class:`ConvergenceError` naming ``what`` after ``max_iter`` steps."""
    r = r0
    residuals = []
    for it in range(1, max_iter + 1):
        r_new = step(r)
        resid = float(distance(np.abs(r_new - r)))
        residuals.append(resid)
        r = r_new
        if resid < tol:
            return RankVector(scores=r, iterations=it, residual=resid,
                              residuals=tuple(residuals))
    raise ConvergenceError(
        f"{what} did not reach tol={tol} in {max_iter} iterations",
        residual=residuals[-1],
        iterations=max_iter,
    )


def pagerank(
    g: DirectedGraph,
    c: float,
    q,
    tol: float = 1e-12,
    max_iter: int = 1000,
) -> RankVector:
    """PageRank by power iteration: ``R <- c * A R + (1 - c) q``.

    ``A`` is the column-stochastic out-link matrix, so the iteration is a
    contraction with factor ``c`` and the result is a probability vector.
    Raises :class:`ConvergenceError` when ``max_iter`` is exhausted.
    """
    q = _validate_rank_inputs(g, c, q)
    inv_degree = _inverse_out_degree(g)
    src, dst, rep, rep_weight = _in_edges(g, inv_degree)
    rep_src = src[rep]
    base = (1.0 - c) * q

    def step(r):
        terms = (r * inv_degree)[src]
        terms[rep] = rep_weight * r[rep_src]
        # bincount adds each node's in-edge terms in source order, as a CSR
        # product of A sums its rows
        return c * np.bincount(dst, terms, g.n) + base

    # L1 residual: the iteration is a c-contraction in this norm
    # because the transition matrix is column-substochastic.
    return _fixed_point(step, q, np.sum, tol, max_iter, "power iteration")


def max_linear_rank(
    g: DirectedGraph,
    c: float,
    q,
    tol: float = 1e-12,
    max_iter: int = 1000,
) -> RankVector:
    """Minimal fixed point of ``R_i = max_j (c/D_j) R_j  v  (1-c) q_i``.

    Starts at the preference floor ``(1 - c) q`` and iterates the monotone
    max-linear map; the sequence is componentwise non-decreasing and
    bounded, hence convergent.  It stays non-decreasing in floating point
    too: the first step is at least its floor, and rounded products by the
    nonnegative weights ``c/D_j`` and maxima keep the order of their inputs,
    so each step is at least the one before it.
    """
    q = _validate_rank_inputs(g, c, q)
    weight = c * _inverse_out_degree(g)
    floor = (1.0 - c) * q

    def step(r):
        r_new = floor.copy()
        np.maximum.at(r_new, g.dst, (weight * r)[g.src])
        return r_new

    return _fixed_point(step, floor, np.max, tol, max_iter, "max-linear iteration")


@dataclass(frozen=True)
class HittingTimes:
    """First hitting times of the top-ranked target set."""

    times: np.ndarray
    mean: float
    median: float
    target_size: int


def random_walk_hitting(
    g: DirectedGraph,
    c: float,
    ranks: RankVector,
    top_p: float,
    trials: int,
    seed: int,
    q=None,
    max_steps: int = 1_000_000,
) -> HittingTimes:
    """Steps a PageRank surfer needs to first enter the top-ranked set.

    The target set holds the ``floor(top_p * n)`` highest-ranked nodes
    (ties by node index).  The walk follows a uniform out-edge with
    probability ``c`` and teleports to a ``q``-distributed node otherwise;
    the ``q``-distributed start node counts as step 0.
    """
    if not (0 < top_p < 1):
        raise ParameterError(f"top_p must be in (0, 1), got {top_p}")
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    m = int(top_p * g.n)
    if m == 0:
        raise ParameterError(f"top_p={top_p} yields an empty target set on n={g.n}")
    if q is None:
        q = np.full(g.n, 1.0 / g.n)
    q = _validate_rank_inputs(g, c, q)
    if np.any(g.out_degree == 0):
        raise ParameterError("walk requires out-degree >= 1 for every node")

    in_target = np.zeros(g.n, dtype=bool)
    in_target[ranks.top_nodes(m)] = True
    # each node's out-edges in a block of their own, in edge-list order
    targets = g.dst[np.argsort(g.src, kind="stable")]
    starts = np.cumsum(g.out_degree) - g.out_degree

    rng = child_rng(seed, STREAMS["walk"])
    cum_q = np.cumsum(q)
    cum_q[-1] = 1.0

    def draw_q(size):
        return np.searchsorted(cum_q, rng.random(size), side="right")

    pos = draw_q(trials).astype(np.int64)
    times = np.full(trials, -1, dtype=np.int64)
    active = np.arange(trials)
    step = 0
    while len(active):
        hit = in_target[pos[active]]
        times[active[hit]] = step
        active = active[~hit]
        if not len(active):
            break
        if step >= max_steps:
            raise ConvergenceError(
                f"{len(active)} walks did not hit the target in {max_steps} steps"
            )
        cur = pos[active]
        teleport = rng.random(len(active)) >= c
        follow = ~teleport
        if np.any(follow):
            nodes = cur[follow]
            offsets = (rng.random(len(nodes)) * g.out_degree[nodes]).astype(np.int64)
            pos[active[follow]] = targets[starts[nodes] + offsets]
        if np.any(teleport):
            pos[active[teleport]] = draw_q(int(np.count_nonzero(teleport)))
        step += 1
    return HittingTimes(
        times=times,
        mean=float(times.mean()),
        median=float(np.median(times)),
        target_size=m,
    )
