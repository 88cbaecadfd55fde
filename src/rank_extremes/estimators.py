"""Tail-index and extremal-index estimators for stationary paths.

All estimators are pure functions of their input vectors and return an
:class:`EstimateReport`.  Extremal-index estimates are clamped to (0, 1]
with the clamping recorded on the report.  Quantiles use the nearest-rank
convention (no interpolation) so results are bit-exact reproducible.

Every threshold needs only upper order statistics, so none of them sorts a
whole sample: :func:`upper_order_statistics` partitions once and sorts only
the selected top slice, and :func:`nearest_rank_quantile` selects its rank
by partition.  Tied values are equal, so the results are identical to those
of a full sort.

A path enters :func:`hill`, :func:`nearest_rank_quantile`,
:func:`blocks_theta`, :func:`intervals_theta` and :func:`mean_cluster_size`
as a 1-D array or as a :class:`TailSample`, which keeps only a path's upper
tail, fed block by block.  Each estimator asks a path two questions, the
``count`` largest values and the positions of the values above ``u``, and
both forms answer them with the same values, so the estimates are the same
bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DataError, ParameterError


@dataclass(frozen=True)
class ThresholdRule:
    """How to pick the tail region: top fraction, top count, or quantile."""

    kind: str
    value: float

    def __post_init__(self):
        if self.kind == "top_fraction":
            if not (0 < self.value < 1):
                raise ParameterError(f"top fraction must be in (0, 1), got {self.value}")
        elif self.kind == "top_count":
            if self.value < 1 or self.value != int(self.value):
                raise ParameterError(f"top count must be an integer >= 1, got {self.value}")
        elif self.kind == "quantile":
            if not (0 < self.value < 1):
                raise ParameterError(f"quantile must be in (0, 1), got {self.value}")
        else:
            raise ParameterError(f"unknown threshold rule '{self.kind}'")

    @classmethod
    def top_fraction(cls, p: float) -> "ThresholdRule":
        return cls("top_fraction", float(p))

    @classmethod
    def top_count(cls, k: int) -> "ThresholdRule":
        return cls("top_count", float(k))

    @classmethod
    def quantile(cls, q: float) -> "ThresholdRule":
        return cls("quantile", float(q))

    def order_count(self, values) -> int:
        """Number of upper order statistics the rule selects from ``values``,
        a 1-D array or a :class:`TailSample`."""
        n = len(values)
        if self.kind == "top_fraction":
            return int(math.floor(self.value * n))
        if self.kind == "top_count":
            return int(self.value)
        u = nearest_rank_quantile(values, self.value)
        return len(_tail(values).above(u))


def upper_order_statistics(values: np.ndarray, count: int) -> np.ndarray:
    """The ``count`` largest values of a 1-D sample, in descending order.

    The sample is partitioned once at ``n - count`` and only the top slice
    is sorted.  ``values`` is not modified.
    """
    values = np.asarray(values)
    if values.ndim != 1:
        raise ParameterError(f"expected a 1-D sample, got {values.ndim}-D")
    if not 1 <= count <= values.size:
        raise ParameterError(f"count must be in [1, {values.size}], got {count}")
    k = values.size - count
    return np.sort(np.partition(values, k)[k:])[::-1]


class TailSample:
    """The upper tail of a path of ``n`` values, fed block by block in path
    order: each value at or above a running floor, with its position, in
    position order.

    The floor is the ``top``-th largest value kept, raised whenever more
    than ``2 * top`` values are kept (or twice what the last raise kept,
    when ties hold more), so the sample holds at most that many plus one
    block.  Given ``floor_of``, another sample fed first with each block,
    or a number, the floor is that sample's or that number instead, and no
    ``largest`` is answered.  A floor never exceeds the ``top``-th largest
    value of the whole path, so the sample answers both questions an
    estimator asks exactly as the whole path would: :meth:`largest` up to
    ``top`` values, and :meth:`above` any threshold at or above the floor.

    :meth:`whole` wraps a 1-D array as the sample that keeps every value.
    Values are assumed not to be NaN.
    """

    def __init__(self, top: int, floor_of: "TailSample | float | None" = None):
        if top < 1:
            raise ParameterError(f"a tail sample keeps its top count >= 1, got {top}")
        self.top = top
        self.n = 0
        fixed = floor_of is not None and not isinstance(floor_of, TailSample)
        self.floor = float(floor_of) if fixed else -math.inf
        self._floor_of = floor_of
        self._limit = 2 * top
        self._values, self._positions = np.empty(0), np.empty(0, np.intp)
        self._parts = []
        self._kept = 0

    @classmethod
    def whole(cls, values) -> "TailSample":
        """The 1-D array ``values`` as a sample of all its values (a float64
        array is not copied)."""
        sample = cls(1)
        sample._values = np.asarray(values, dtype=float)
        sample.n = sample.top = len(sample._values)
        sample._positions = None  # every position, in order
        return sample

    def __len__(self) -> int:
        return self.n

    def feed(self, block: np.ndarray, rows: np.ndarray | None = None,
             size: int | None = None) -> None:
        """Take the next ``len(block)`` values of the path (copied).  Given
        ``rows``, take the next ``size`` values instead, of which ``block``
        holds those at the ascending positions ``rows`` among them: each
        value it does not hold must lie below the floor.  ``rows`` of
        ``None`` stands for every position."""
        if isinstance(self._floor_of, TailSample):
            self.floor = self._floor_of.floor
        keep = np.flatnonzero(block >= self.floor)
        self._parts.append((block[keep], (keep if rows is None else rows[keep]) + self.n))
        self.n += len(block) if rows is None else size
        self._kept += len(keep)
        if self._kept > self._limit:
            self._prune()

    def _gather(self) -> None:
        if self._parts:
            values, positions = zip(*self._parts)
            self._values = np.concatenate((self._values, *values))
            self._positions = np.concatenate((self._positions, *positions))
            self._parts = []

    def _prune(self) -> None:
        self._gather()
        values = self._values
        if self._floor_of is None:  # more than 2 * top values are kept
            self.floor = np.partition(values, len(values) - self.top)[-self.top]
        elif isinstance(self._floor_of, TailSample):
            self.floor = self._floor_of.floor
        keep = values >= self.floor
        self._values, self._positions = values[keep], self._positions[keep]
        self._kept = len(self._values)
        self._limit = 2 * max(self.top, self._kept)

    def largest(self, count: int) -> np.ndarray:
        """The ``count`` largest values, in descending order
        (:func:`upper_order_statistics`)."""
        if self._positions is not None:  # not a whole path
            if not 1 <= count <= self.n:
                raise ParameterError(f"count must be in [1, {self.n}], got {count}")
            if count > self.top or self._floor_of is not None:
                raise ParameterError(f"a tail sample keeps its {self.top} largest values, "
                                     f"not {count}")
            self._gather()
        return upper_order_statistics(self._values, count)

    def above(self, u: float) -> np.ndarray:
        """The positions of the values above ``u``, ascending."""
        if u < self.floor:
            raise ParameterError(f"threshold {u} is below the tail sample's floor "
                                 f"{self.floor}: values above it were not kept")
        self._gather()
        if self._positions is None:
            return np.flatnonzero(self._values > u)
        return self._positions[self._values > u]


def _tail(path) -> TailSample:
    """``path``, a 1-D array or a :class:`TailSample`, as a tail sample."""
    return path if isinstance(path, TailSample) else TailSample.whole(path)


def nearest_rank_index(q: float, size: int) -> int:
    """0-based ascending rank of the nearest-rank ``q`` quantile among
    ``size`` values: the ``size - index`` largest values reach down to it."""
    return min(max(int(math.ceil(q * size)) - 1, 0), size - 1)


def nearest_rank_quantile(values, q: float) -> float:
    """Nearest-rank empirical quantile (no interpolation) of a 1-D sample,
    or of a :class:`TailSample`'s path."""
    if not (0 < q < 1):
        raise ParameterError(f"quantile level must be in (0, 1), got {q}")
    sample = isinstance(values, TailSample)
    values = values if sample else np.asarray(values)
    if not sample and values.ndim != 1:
        raise ParameterError(f"expected a 1-D sample, got {values.ndim}-D")
    n = len(values)
    if n == 0:
        raise DataError("quantile of an empty sample")
    idx = nearest_rank_index(q, n)
    if sample:
        return float(values.largest(n - idx)[-1])
    return float(np.partition(values, idx)[idx])


@dataclass(frozen=True)
class EstimateReport:
    """One estimate with the metadata needed to reproduce it."""

    estimate: float
    method: str
    n: int
    threshold: float | None = None
    exceedances: int | None = None
    block_length: int | None = None
    run_gap: int | None = None
    replications: int | None = None
    seed: int | None = None
    clamped: bool = False
    details: dict = field(default_factory=dict)

    # Documented serialization field order (JSON object keys).
    FIELDS = (
        "method", "estimate", "n", "threshold", "exceedances",
        "block_length", "run_gap", "replications", "seed", "clamped",
    )

    def to_json(self) -> str:
        payload = {name: getattr(self, name) for name in self.FIELDS}
        payload["details"] = self.details
        return json.dumps(payload, sort_keys=False)


def _clamp_theta(theta: float) -> tuple[float, bool]:
    """Clamp a finite-sample extremal-index estimate to (0, 1]."""
    if theta > 1.0:
        return 1.0, True
    if theta <= 0.0:
        return float(np.nextafter(0.0, 1.0)), True
    return theta, False


def hill(path, rule: ThresholdRule) -> EstimateReport:
    """Hill estimator of the tail index over the upper order statistics.

    ``k_hat = 1 / mean(log(X_(i) / X_(m+1)))`` over the top ``m`` order
    statistics selected by ``rule``.  Only the top ``m + 1`` values are
    sorted; tied values are equal, so the estimate equals that of a full
    sort.
    """
    path = _tail(path)
    n = len(path)
    m = rule.order_count(path)
    # Callers should supply >= 10 upper order statistics for a meaningful
    # estimate; fewer than 2 makes the formula mechanically undefined.
    if m < 2:
        raise DataError(f"need at least 2 upper order statistics, rule selected {m}")
    if m >= n:
        raise DataError(f"rule selected {m} order statistics out of n={n}")
    order = path.largest(m + 1)
    top = order[:m]
    ref = order[m]
    if ref <= 0 or top[-1] <= 0:
        raise DataError("nonpositive values in the tail region; log undefined")
    mean_log = float(np.mean(np.log(top / ref)))
    if mean_log == 0.0:
        raise DataError("degenerate tail region (all selected values tied)")
    return EstimateReport(
        estimate=1.0 / mean_log,
        method="hill",
        n=n,
        threshold=float(ref),
        exceedances=m,
    )


def blocks_theta(
    path,
    u: float,
    b: int | None = None,
    exceed_prob: float | None = None,
) -> EstimateReport:
    """Disjoint-blocks extremal-index estimator at threshold ``u``.

    ``theta_hat = log(mean 1{M_block <= u}) / (b * log(1 - p_u))`` over
    ``floor(n / b)`` disjoint blocks.  ``p_u`` defaults to the path's own
    exceedance frequency; pass ``exceed_prob`` to calibrate against a
    reference law instead (used by the preference-dominant verification,
    where the defining threshold sequence is tied to the preference
    variable rather than to the aggregate itself).  A block's maximum is
    at most ``u`` when no exceedance of ``u`` falls in it.
    """
    path = _tail(path)
    n = len(path)
    if b is None:
        b = int(math.isqrt(n))
    if b < 1:
        raise ParameterError(f"block length must be >= 1, got {b}")
    if n < 10 * b:
        raise ParameterError(f"need n >= 10*b, got n={n}, b={b}")
    idx = path.above(u)
    n_exc = len(idx)
    p_u = n_exc / n if exceed_prob is None else float(exceed_prob)
    if exceed_prob is None and n_exc == 0:
        raise DataError("no exceedances of the threshold")
    if not (0 < p_u < 1):
        raise DataError(f"exceedance probability {p_u} outside (0, 1)")
    n_b = n // b
    blocks_below = n_b - len(np.unique(idx[idx < n_b * b] // b))
    below = blocks_below / n_b
    if below == 0.0:
        raise DataError("every block exceeds the threshold; threshold too low")
    theta = math.log(below) / (b * math.log1p(-p_u))
    theta, clamped = _clamp_theta(theta)
    return EstimateReport(
        estimate=theta,
        method="blocks",
        n=n,
        threshold=float(u),
        exceedances=n_exc,
        block_length=b,
        clamped=clamped,
        details={"blocks": n_b, "blocks_below": blocks_below},
    )


def intervals_theta(path, u: float) -> EstimateReport:
    """Interexceedance-time moment estimator of the extremal index.

    With gaps ``T_1..T_{N-1}`` between consecutive exceedances of ``u``:
    ``theta_hat = min(1, 2 (sum T)^2 / ((N-1) sum T^2))``, switching to the
    ``(T - 1)`` variant when ``max T > 2``.
    """
    path = _tail(path)
    n = len(path)
    idx = path.above(u)
    n_exc = len(idx)
    if n_exc < 2:
        raise DataError(f"need at least 2 exceedances, got {n_exc}")
    gaps = np.diff(idx).astype(float)
    m = len(gaps)
    if gaps.max() > 2:
        t = gaps - 1.0
        theta = 2.0 * t.sum() ** 2 / (m * np.sum(t * (t - 1.0)))
    else:
        theta = 2.0 * gaps.sum() ** 2 / (m * np.sum(gaps**2))
    theta, clamped = _clamp_theta(min(1.0, float(theta)))
    return EstimateReport(
        estimate=theta,
        method="intervals",
        n=n,
        threshold=float(u),
        exceedances=n_exc,
        clamped=clamped,
    )


def definition_top_count(r: int, n: int, tau: float) -> int:
    """How many of the largest pooled calibration values reach down to
    ``u_n``, the nearest-rank ``1 - tau/n`` quantile of ``r * n`` values.

    Checks ``r >= 100`` replications and ``0 < tau < n`` first, so a caller
    can refuse a run before it samples anything.  A replication of ``n``
    calibration values never contributes more than its own top ``count``.
    """
    if r < 100:
        raise ParameterError(f"need at least 100 replications, got {r}")
    if not tau > 0:
        raise ParameterError(f"tau must be positive, got {tau}")
    level = 1.0 - tau / n
    if not (0 < level < 1):
        raise ParameterError(f"tau={tau} incompatible with path length n={n}")
    return r * n - nearest_rank_index(level, r * n)


def definition_theta_from_maxima(maxima, n: int, tau: float, u_n: float) -> EstimateReport:
    """Definition-based estimator from replicated path maxima at a given
    threshold: ``theta_hat = -log(mean 1{M_n <= u_n}) / tau``.

    ``maxima`` holds one maximum per replication of ``n`` values, and
    ``u_n`` is the ``count``-th largest pooled calibration value, with
    ``count`` from :func:`definition_top_count`.  Only the maxima and the
    calibration tops are needed, so the paths can be streamed.
    """
    maxima = np.asarray(maxima, dtype=float)
    r = len(maxima)
    definition_top_count(r, n, tau)  # checks r and tau; the count is not needed
    below = int(np.count_nonzero(maxima <= u_n))
    if below == 0:
        raise DataError("every replication maximum exceeds u_n; threshold failure")
    theta = -math.log(below / r) / tau
    theta, clamped = _clamp_theta(theta)
    return EstimateReport(
        estimate=theta,
        method="definition",
        n=n,
        threshold=float(u_n),
        replications=r,
        clamped=clamped,
        details={"tau": tau, "maxima_below": below},
    )


def definition_theta(paths, tau: float, calibration_paths=None) -> EstimateReport:
    """Definition-based estimator from a 2-D block of replicated paths:
    :func:`definition_theta_from_maxima` of the row maxima, at ``u_n`` the
    nearest-rank ``1 - tau/n`` quantile of the pooled calibration values
    (the paths themselves by default).  ``exceedances`` counts the path
    values above ``u_n``.
    """
    paths = np.asarray(paths, dtype=float)
    if paths.ndim != 2:
        raise ParameterError("paths must be a 2-D array (replications x length)")
    n = paths.shape[1]
    calib = paths if calibration_paths is None else np.asarray(calibration_paths, dtype=float)
    u_n = nearest_rank_quantile(calib.ravel(), 1.0 - tau / n)
    report = definition_theta_from_maxima(paths.max(axis=1), n, tau, u_n)
    return replace(report, exceedances=int(np.count_nonzero(paths > u_n)))


@dataclass(frozen=True)
class ClusterStats:
    """Runs-declustering summary at ``run_gap``: 1/theta approximates the mean cluster size."""

    cluster_count: int
    exceedance_count: int
    mean_size: float
    theta_runs: float
    run_gap: int


def mean_cluster_size(path, u: float, run_gap: int | None = None) -> ClusterStats:
    """Runs declustering of the exceedances of ``u``.

    A new cluster starts when consecutive exceedances are separated by at
    least ``run_gap`` non-exceedances.  ``theta_runs = clusters /
    exceedances`` and the mean cluster size is its reciprocal (exactly).
    """
    path = _tail(path)
    n = len(path)
    if run_gap is None:
        run_gap = int(math.ceil(math.log(n)))
    if run_gap < 1:
        raise ParameterError(f"run gap must be >= 1, got {run_gap}")
    idx = path.above(u)
    n_exc = len(idx)
    if n_exc == 0:
        raise DataError("no exceedances of the threshold")
    # gap in indices minus one = number of intervening non-exceedances
    clusters = 1 + int(np.count_nonzero(np.diff(idx) - 1 >= run_gap))
    return ClusterStats(
        cluster_count=clusters,
        exceedance_count=n_exc,
        mean_size=n_exc / clusters,
        theta_runs=clusters / n_exc,
        run_gap=run_gap,
    )
