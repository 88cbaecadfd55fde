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


def _frechet(rng: np.random.Generator, scale: float, k: float, n: int) -> np.ndarray:
    """Fréchet draws with survival ``1 - exp(-scale * z**-k) ~ scale * z**-k``,
    ``(scale / E)**(1/k)`` computed in place over the exponential draws."""
    z = rng.standard_exponential(n)  # the same stream as exponential(size=n)
    np.divide(scale, z, out=z)
    z **= 1.0 / k
    return z


def gen_moving_maxima(seq: SequenceSpec, n: int, rng: int | np.random.Generator, *,
                      out=None) -> np.ndarray:
    """Stationary path ``Y_t = max_j a_j * Z_{t-j}`` of length ``n``.

    Innovations ``Z`` are Fréchet with tail index ``seq.tail.k`` and scale
    chosen so the marginal tail of ``Y`` matches ``seq.tail`` at leading
    order: ``P{Y > y} ~ c * y**-k``.  The resulting extremal index is
    ``max_j a_j**k / sum_j a_j**k``.

    A single-coefficient spec degenerates to an i.i.d. path, drawn as exact
    Pareto so marginal tails are sharp.  The path is written into ``out``
    (a float64 array of length ``n``) when given.
    """
    if n < 1:
        raise ParameterError(f"path length must be >= 1, got {n}")
    a = np.asarray(seq.dep.coeffs, dtype=float)
    m = len(a)
    rng = as_generator(rng, STREAMS["column"], 0)
    if m == 1:
        return sample_pareto(seq.tail, n, rng, out=out)
    k = seq.tail.k
    innov_scale = seq.tail.c / float(np.sum(a**k))
    z = _frechet(rng, innov_scale, k, n + m - 1)
    path = np.multiply(a[0], z[m - 1 : m - 1 + n], out=out)
    term = np.empty(n)  # one work buffer for every lagged product
    for j in range(1, m):
        if a[j] == 0.0:
            continue
        np.maximum(path, np.multiply(a[j], z[m - 1 - j : m - 1 - j + n], out=term), out=path)
    return path


def sample_sequence(seq: SequenceSpec, n: int, rng: int | np.random.Generator, *,
                    out=None) -> np.ndarray:
    """Stationary path for ``seq``: i.i.d. Pareto or moving maxima."""
    return gen_moving_maxima(seq, n, rng, out=out)


def sample_power_law_int(spec: InDegreeSpec, n: int,
                         rng: int | np.random.Generator) -> np.ndarray:
    """Draw ``n`` i.i.d. integers from the truncated power law of ``spec``."""
    if n < 1:
        raise ParameterError(f"sample size must be >= 1, got {n}")
    u = as_generator(rng, STREAMS["in_degree"], 0).random(n)
    return _power_law_lookup(spec, u)


def _power_law_lookup(spec: InDegreeSpec, u: np.ndarray) -> np.ndarray:
    """Inverse cdf of the truncated law at uniforms ``u`` in [0, 1): equal to
    ``np.searchsorted(cdf, u, "right") + 1``, read from the guide table, with
    a search only for the draws in buckets that a cdf entry splits."""
    guide, split = _power_law_guide(spec)
    # the product is exact and nonnegative, so the cast takes its floor
    buckets = np.multiply(u, GUIDE_BUCKETS, out=np.empty(len(u), np.intp), casting="unsafe")
    draws = guide.take(buckets, mode="clip")  # every bucket is in range
    searched = split.take(buckets, mode="clip")
    if searched.any():
        _, cdf = _power_law_tables(spec)
        draws[searched] = np.searchsorted(cdf, u[searched], side="right") + 1
    return draws


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
