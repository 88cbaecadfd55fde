"""Samplers for regularly varying inputs.

Three families are provided:

* exact Pareto draws with survival function ``P{X > x} = c * x**(-k)``,
* stationary moving-maxima paths with a prescribed extremal index,
* truncated power-law integers used as in-degrees.

All samplers take ``(spec, n, rng)``.  A ``Generator`` ``rng`` is used as
given; an integer root seed draws from the stream ``(column, 0)``, or
``(in_degree, 0)`` for :func:`sample_power_law_int`, so the draws are a pure
function of the seed (see :mod:`rank_extremes.rng` for the splitting rule).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.special import zeta

from .errors import ParameterError
from .rng import STREAMS, as_generator


@dataclass(frozen=True)
class TailSpec:
    """Regularly varying tail ``P{X > x} = c * x**(-k)`` for ``x >= c**(1/k)``.

    ``k`` is the tail index (smaller is heavier), ``c`` the scale constant.
    """

    k: float
    c: float = 1.0

    def __post_init__(self):
        if not (self.k > 0 and np.isfinite(self.k)):
            raise ParameterError(f"tail index k must be positive, got {self.k}")
        if not (self.c > 0 and np.isfinite(self.c)):
            raise ParameterError(f"scale constant c must be positive, got {self.c}")

    @property
    def support_left(self) -> float:
        """Left endpoint of the exact-Pareto support."""
        return self.c ** (1.0 / self.k)

    def survival(self, x):
        """Exact survival function of the Pareto realization."""
        x = np.asarray(x, dtype=float)
        return np.minimum(1.0, self.c * x ** (-self.k))


@dataclass(frozen=True)
class DependenceSpec:
    """Serial dependence of a stationary sequence.

    ``coeffs`` are the moving-maxima weights ``a_0..a_{m-1}``; a single
    coefficient means the sequence is i.i.d.  Coefficients must be
    nonnegative with at least one positive entry.
    """

    coeffs: tuple[float, ...] = (1.0,)

    def __post_init__(self):
        if len(self.coeffs) < 1:
            raise ParameterError("at least one moving-maxima coefficient required")
        a = np.asarray(self.coeffs, dtype=float)
        if not np.all(np.isfinite(a)) or np.any(a < 0):
            raise ParameterError("coefficients must be finite and nonnegative")
        if not np.any(a > 0):
            raise ParameterError("all-zero coefficient vector")

    @classmethod
    def iid(cls) -> "DependenceSpec":
        return cls((1.0,))

    @classmethod
    def moving_maxima(cls, *coeffs: float) -> "DependenceSpec":
        return cls(tuple(float(a) for a in coeffs))

    @property
    def is_iid(self) -> bool:
        return len(self.coeffs) == 1


@dataclass(frozen=True)
class SequenceSpec:
    """Marginal tail plus serial dependence of one stationary sequence."""

    tail: TailSpec
    dep: DependenceSpec = field(default_factory=DependenceSpec.iid)

    @property
    def theta(self) -> float:
        """Extremal index implied by the dependence structure."""
        return theoretical_mm_theta(self.dep, self.tail.k)


@dataclass(frozen=True)
class InDegreeSpec:
    """Truncated power-law integer law on ``{1, .., n_max}``.

    ``P{N = l}`` is proportional to ``l**-(alpha + 1)``, so the survival
    function decays with index ``alpha``.
    """

    alpha: float
    n_max: int

    def __post_init__(self):
        if not (self.alpha > 0 and np.isfinite(self.alpha)):
            raise ParameterError(f"alpha must be positive, got {self.alpha}")
        if self.n_max < 1:
            raise ParameterError(f"n_max must be >= 1, got {self.n_max}")


# pmf/cdf tables are O(n_max); memoize so replication loops do not rebuild them.
@functools.lru_cache(maxsize=16)
def _power_law_tables(spec: InDegreeSpec):
    """Normalized pmf and cdf of the truncated law, cached per spec."""
    support = np.arange(1, spec.n_max + 1, dtype=float)
    weights = support ** -(spec.alpha + 1.0)
    pmf = weights / weights.sum()
    cdf = np.cumsum(pmf)
    cdf[-1] = 1.0
    return pmf, cdf


# Buckets of the guide table: ``u * GUIDE_BUCKETS`` is exact for a double u,
# so bucket b holds exactly the draws in [b / GUIDE_BUCKETS, (b+1) / GUIDE_BUCKETS).
GUIDE_BUCKETS = 2**12


@functools.lru_cache(maxsize=16)
def _power_law_guide(spec: InDegreeSpec):
    """Guide table of the truncated law's cdf, cached per spec: per bucket,
    the integer every draw in it maps to, and whether a cdf entry splits the
    bucket (its draws then need a search).  Fixed size, whatever ``n_max``."""
    _, cdf = _power_law_tables(spec)
    edges = np.arange(GUIDE_BUCKETS + 1) / GUIDE_BUCKETS
    lowest = np.searchsorted(cdf, edges[:-1], side="right")
    # the answer at the largest double below the upper edge
    highest = np.searchsorted(cdf, edges[1:], side="left")
    return (lowest + 1).astype(np.int64), lowest != highest


def sample_pareto(spec: TailSpec, n: int, rng: int | np.random.Generator, *,
                  out=None) -> np.ndarray:
    """Draw ``n`` i.i.d. exact-Pareto values with the tail of ``spec``.

    Inverse transform: ``X = (c / U)**(1/k)`` with ``U`` uniform on (0, 1],
    so ``P{X > x} = c * x**(-k)`` holds exactly on the support.  The draws
    are transformed in place, in ``out`` (a float64 array of length ``n``)
    when given; the values equal those of the expression bit for bit.
    """
    if n < 1:
        raise ParameterError(f"sample size must be >= 1, got {n}")
    x = as_generator(rng, STREAMS["column"], 0).random(n, out=out)
    return pareto_transform(spec, x)


def pareto_transform(spec: TailSpec, x: np.ndarray) -> np.ndarray:
    """The Pareto values of the uniforms ``x`` in [0, 1), computed in place
    and returned: each value depends only on its own uniform, so a copy of
    any of the uniforms transforms to the same values bit for bit.

    Each step is monotone in the uniform, ``pow`` up to its rounding error.
    """
    np.subtract(1.0, x, out=x)  # uniform on (0, 1]; avoids division by zero
    np.divide(spec.c, x, out=x)
    x **= 1.0 / spec.k  # the operator, so NumPy's scalar-power fast paths apply
    return x


def theoretical_mm_theta(dep: DependenceSpec, k: float) -> float:
    """Closed-form extremal index of the moving-maxima generator.

    ``theta = max_j a_j**k / sum_j a_j**k``; equals 1 iff exactly one
    coefficient is nonzero (in particular for the i.i.d. case).
    """
    if not k > 0:
        raise ParameterError(f"tail index k must be positive, got {k}")
    a = np.asarray(dep.coeffs, dtype=float) ** k
    return float(a.max() / a.sum())


def _frechet(rng: np.random.Generator, scale: float, k: float, n: int, *,
             out=None) -> np.ndarray:
    """Fréchet draws with survival ``1 - exp(-scale * z**-k) ~ scale * z**-k``,
    ``(scale / E)**(1/k)`` computed in place over the exponential draws
    (in ``out``, a float64 array of length ``n``, when given)."""
    z = rng.standard_exponential(n, out=out)  # the same stream as exponential(size=n)
    np.divide(scale, z, out=z)
    z **= 1.0 / k
    return z


class SequenceStream:
    """One stationary sequence for ``seq``, drawn block after block: the
    blocks that :meth:`fill` writes concatenate to
    ``sample_sequence(seq, n, rng)`` bit for bit.

    An i.i.d. sequence takes the next uniforms of its stream for each block.
    A moving-maxima sequence takes the next Fréchet innovations and carries
    its last ``lag = m - 1`` into the next block.  A stream drawn in
    consecutive chunks gives the values of one draw, and every transform is
    elementwise, so the block boundaries leave no trace in the values.
    """

    def __init__(self, seq: SequenceSpec, rng: int | np.random.Generator):
        self.tail = seq.tail
        self.coeffs = np.asarray(seq.dep.coeffs, dtype=float)
        self.lag = len(self.coeffs) - 1
        self.rng = as_generator(rng, STREAMS["column"], 0)
        self._scale = seq.tail.c / float(np.sum(self.coeffs**seq.tail.k))
        self._carry = None  # the previous block's last `lag` innovations

    def fill(self, out: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
        """Write the next ``len(out) >= 1`` values into ``out`` and return it.

        ``work`` is float64 scratch of at least ``len(out) + lag`` values,
        allocated when not given; an i.i.d. sequence needs none.
        """
        rows = len(out)
        if not self.lag:
            return sample_pareto(self.tail, rows, self.rng, out=out)
        m1 = self.lag
        z = (np.empty(rows + m1) if work is None else work)[: rows + m1]
        fresh = z
        if self._carry is not None:
            z[:m1] = self._carry
            fresh = z[m1:]
        _frechet(self.rng, self._scale, self.tail.k, len(fresh), out=fresh)
        self._carry = z[rows:].copy()
        # Y_t = max_j a_j * Z_{t-j}: a_0 always enters, later zero lags are
        # skipped, and a unit coefficient takes its innovations as they are
        path = term = None
        for j, a in enumerate(self.coeffs):
            if a == 0.0 and j > 0:
                continue
            lagged = z[m1 - j : m1 - j + rows]
            if a != 1.0:
                if path is None:
                    lagged = np.multiply(a, lagged, out=out)
                else:
                    term = np.empty(rows) if term is None else term
                    lagged = np.multiply(a, lagged, out=term)
            path = lagged if path is None else np.maximum(path, lagged, out=out)
        if path is not out:
            out[:] = path
        return out


def gen_moving_maxima(seq: SequenceSpec, n: int, rng: int | np.random.Generator, *,
                      out=None) -> np.ndarray:
    """Stationary path ``Y_t = max_j a_j * Z_{t-j}`` of length ``n``.

    Innovations ``Z`` are Fréchet with tail index ``seq.tail.k`` and scale
    chosen so the marginal tail of ``Y`` matches ``seq.tail`` at leading
    order: ``P{Y > y} ~ c * y**-k``.  The resulting extremal index is
    ``max_j a_j**k / sum_j a_j**k``.

    A single-coefficient spec degenerates to an i.i.d. path, drawn as exact
    Pareto so marginal tails are sharp.  The path is one block of a
    :class:`SequenceStream`, written into ``out`` (a float64 array of
    length ``n``) when given.
    """
    if n < 1:
        raise ParameterError(f"path length must be >= 1, got {n}")
    return SequenceStream(seq, rng).fill(np.empty(n) if out is None else out)


def sample_sequence(seq: SequenceSpec, n: int, rng: int | np.random.Generator, *,
                    out=None) -> np.ndarray:
    """Stationary path for ``seq``: i.i.d. Pareto or moving maxima."""
    return gen_moving_maxima(seq, n, rng, out=out)


def sample_power_law_int(spec: InDegreeSpec, n: int, rng: int | np.random.Generator, *,
                         out=None, work=None) -> np.ndarray:
    """Draw ``n`` i.i.d. integers from the truncated power law of ``spec``.

    The draws are written into ``out`` (an int64 array of length ``n``) when
    given, and ``work`` (an intp array of length ``n``) is the lookup's
    scratch, so a caller that passes both allocates no array of ``n``.
    """
    if n < 1:
        raise ParameterError(f"sample size must be >= 1, got {n}")
    out = np.empty(n, np.int64) if out is None else out
    # the uniforms take the memory of the draws, which the lookup writes last
    u = as_generator(rng, STREAMS["in_degree"], 0).random(n, out=out.view(np.float64))
    return _power_law_lookup(spec, u, out, work)


def _power_law_lookup(spec: InDegreeSpec, u: np.ndarray, out=None,
                      buckets=None) -> np.ndarray:
    """Inverse cdf of the truncated law at uniforms ``u`` in [0, 1): equal to
    ``np.searchsorted(cdf, u, "right") + 1``, read from the guide table, with
    a search only for the draws in buckets that a cdf entry splits.

    The draws are written into ``out`` (int64, which may be ``u``'s memory)
    and ``buckets`` (intp) is scratch, each of ``len(u)`` and allocated when
    not given."""
    out = np.empty(len(u), np.int64) if out is None else out
    buckets = np.empty(len(u), np.intp) if buckets is None else buckets
    guide, split = _power_law_guide(spec)
    # the product is exact and nonnegative, so the cast takes its floor
    np.multiply(u, GUIDE_BUCKETS, out=buckets, casting="unsafe")
    searched = np.flatnonzero(split.take(buckets, mode="clip"))
    u_searched = u[searched]  # read before out overwrites u
    guide.take(buckets, out=out, mode="clip")  # every bucket is in range
    if len(searched):
        _, cdf = _power_law_tables(spec)
        out[searched] = np.searchsorted(cdf, u_searched, side="right") + 1
    return out


def _tail_sum(spec: InDegreeSpec, n) -> np.ndarray:
    """``sum_{l = n+1}^{n_max} l**-(alpha + 1)`` for ``0 <= n <= n_max``, as a
    difference of Hurwitz zeta values: it cancels only at the scale of the
    tail itself, where ``1 - cdf`` cancels at the scale of 1."""
    s = spec.alpha + 1.0
    return zeta(s, np.asarray(n, dtype=float) + 1.0) - zeta(s, spec.n_max + 1.0)


def power_law_survival(spec: InDegreeSpec, x) -> np.ndarray:
    """Exact ``P{N > x}`` of the truncated law, in closed form."""
    n = np.clip(np.floor(np.asarray(x, dtype=float)), 0, spec.n_max)
    return _tail_sum(spec, n) / _tail_sum(spec, 0)


@dataclass(frozen=True)
class VonMisesDiagnostic:
    """Ratio sequence ``n * P{N = n} / P{N > n}`` with truncation flags.

    ``truncated[i]`` marks points where the finite support removes more
    than 1% of the untruncated tail mass, so the ratio no longer tracks
    ``alpha`` there.
    """

    n: np.ndarray
    ratio: np.ndarray
    alpha: float
    truncated: np.ndarray


def von_mises_check(spec: InDegreeSpec, n) -> VonMisesDiagnostic:
    """Evaluate the Fréchet-domain ratio diagnostic at the points ``n``,
    integers in ``1..n_max-1``.

    For the truncated power law the ratio approaches ``alpha`` well inside
    the support and diverges near ``n_max`` (flagged).  Both the ratio and
    the flags are closed forms in the Hurwitz zeta function, so no
    ``O(n_max)`` table is built.
    """
    if spec.n_max < 10:
        raise ParameterError("von Mises diagnostic needs n_max >= 10")
    ns = np.asarray(n, dtype=np.int64)
    if ns.size and not (ns.min() >= 1 and ns.max() < spec.n_max):
        raise ParameterError(f"von Mises points must lie in 1..{spec.n_max - 1}")
    tail = _tail_sum(spec, ns)
    # n * P{N = n} / P{N > n}: the normalising constant cancels
    ratio = ns.astype(float) ** -spec.alpha / tail
    # tail mass the truncation removes, relative to the untruncated tail
    missing = zeta(spec.alpha + 1.0, spec.n_max + 1.0) / zeta(spec.alpha + 1.0, ns + 1.0)
    return VonMisesDiagnostic(n=ns, ratio=ratio, alpha=spec.alpha, truncated=missing > 0.01)
