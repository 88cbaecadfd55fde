"""Closed-form tail and extremal indices of weighted sums and maxima.

These predictors are the ground truth the Monte-Carlo experiments are
checked against.  They cover three settings:

* a unique minimal tail index among the components (min rule),
* equal tail indices (weighted-average extremal index),
* random-length aggregates with a preference term (two regimes,
  preference-dominant and followers-dominant).

Each predictor reads its components as four equal-length arrays ``z, k, c,
theta``: the weights, tail indices, tail scales and extremal indices, one
entry per component (per configured follower in the random-length case).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

MIN_RULE = "MIN_RULE"
EQUAL_TAILS = "EQUAL_TAILS"
PREFERENCE_DOMINATES = "PREFERENCE_DOMINATES"
FOLLOWERS_DOMINATE = "FOLLOWERS_DOMINATE"

# Partial sums of the scale series must stop moving, in relative terms, by
# the last configured follower; otherwise the series is reported as divergent.
SCALE_STABILIZATION_RTOL = 1e-9


def _components(z, k, c, theta) -> tuple[np.ndarray, ...]:
    """``z, k, c, theta`` as float arrays, one entry per component: weight,
    tail index, tail scale and extremal index.  Refused unless they are
    nonempty and of equal length, each ``z``, ``k`` and ``c`` is positive
    and finite, and each ``theta`` lies in ``(0, 1]``."""
    arrays = tuple(np.asarray(a, dtype=float) for a in (z, k, c, theta))
    if not (arrays[0].ndim == 1 and len(arrays[0]) > 0
            and all(a.shape == arrays[0].shape for a in arrays)):
        raise ParameterError("components must be nonempty 1-D arrays of equal length, got "
                             f"shapes {[a.shape for a in arrays]}")
    for name, a in zip(("weight z", "tail index k", "scale c"), arrays):
        bad = ~((a > 0) & np.isfinite(a))
        if bad.any():
            raise ParameterError(f"{name} must be positive and finite, got {a[bad][0]}")
    theta = arrays[3]
    bad = ~((theta > 0) & (theta <= 1))
    if bad.any():
        raise ParameterError(f"extremal index must be in (0, 1], got {theta[bad][0]}")
    return arrays


@dataclass(frozen=True)
class TheoryPrediction:
    """Predicted ``(k(z), theta(z), c(z))`` and the regime that produced it."""

    k_of_z: float
    theta_of_z: float
    c_of_z: float
    regime: str
    scale_converged: bool = True

    def __post_init__(self):
        if not self.k_of_z > 0:
            raise ParameterError("predicted tail index must be positive")
        if not (0 < self.theta_of_z <= 1):
            raise ParameterError("predicted extremal index must be in (0, 1]")


def predict_min_rule(z, k, c, theta) -> TheoryPrediction:
    """Prediction when exactly one component attains the minimal tail index.

    The heaviest component wins outright: ``k(z) = k_m``,
    ``theta(z) = theta_m``, ``c(z) = c_m * z_m**k_m``.  Weights and scales
    of the lighter components do not enter.
    """
    z, k, c, theta = _components(z, k, c, theta)
    m = int(np.argmin(k))
    k_min = k[m]
    if np.sum(np.isclose(k, k_min, rtol=0.0, atol=0.0)) > 1:
        raise ParameterError(
            "tied minimal tail index: use predict_equal_tails for equal tails; "
            "ties across unequal groups are outside the supported settings"
        )
    return TheoryPrediction(
        k_of_z=float(k_min),
        theta_of_z=float(theta[m]),
        c_of_z=float(c[m] * z[m]**k_min),
        regime=MIN_RULE,
    )


def predict_equal_tails(z, k, c, theta) -> TheoryPrediction:
    """Prediction when all components share the same tail index ``k``.

    ``theta(z)`` is the ``c_i * z_i**k``-weighted average of the component
    extremal indices; ``c(z)`` is the corresponding total scale.
    """
    z, ks, c, theta = _components(z, k, c, theta)
    k = float(ks[0])
    if not np.all(ks == k):
        raise ParameterError("predict_equal_tails requires equal tail indices")
    w = c * z**k
    c_of_z = float(w.sum())
    # an average of indices in (0, 1]; rounding alone can push it past 1
    theta_of_z = min(1.0, float(np.dot(w, theta) / c_of_z))
    return TheoryPrediction(k_of_z=k, theta_of_z=theta_of_z, c_of_z=c_of_z,
                            regime=EQUAL_TAILS)


def predict_random_length(z, k, c, theta, alpha: float, beta: float,
                          z_star: float) -> TheoryPrediction:
    """Prediction for the random-length aggregate with a preference term.

    ``z, k, c, theta`` describe the configured followers, one entry each.
    They must share a common tail index ``k``; ``alpha`` is the
    in-degree tail index, ``beta`` the preference tail index and ``z_star``
    the preference weight.  The tail index is ``min(k, alpha, beta)``.  The
    extremal index switches regime at ``k = beta`` (the boundary belongs to
    the preference-dominant branch):

    * ``k >= beta``: ``theta(z) = z_star**beta``;
    * ``k < beta``: the ``c_i * z_i**k``-weighted average of the follower
      extremal indices.

    The scale series ``sum_i c_i * z_i**k`` is reported as its partial sum
    over the configured followers; ``scale_converged`` is False when the
    partial sums have not stabilized to relative 1e-9 by the last one.
    """
    if not (alpha > 0 and beta > 0):
        raise ParameterError("alpha and beta must be positive")
    if not (0 < z_star < 1):
        raise ParameterError(f"z_star must be in (0, 1), got {z_star}")
    z, ks, c, theta = _components(z, k, c, theta)
    k = float(ks[0])
    if not np.all(ks == k):
        raise ParameterError("followers must share a common tail index")

    w = c * z**k
    partial = np.cumsum(w)
    c_of_z = float(partial[-1])
    converged = len(w) == 1 or bool(w[-1] / partial[-1] <= SCALE_STABILIZATION_RTOL)

    k_of_z = min(k, alpha, beta)
    if k >= beta:
        theta_of_z = float(z_star**beta)
        regime = PREFERENCE_DOMINATES
    else:
        # an average of indices in (0, 1]; rounding alone can push it past 1
        theta_of_z = min(1.0, float(np.dot(w, theta) / c_of_z))
        regime = FOLLOWERS_DOMINATE
    return TheoryPrediction(
        k_of_z=k_of_z,
        theta_of_z=theta_of_z,
        c_of_z=c_of_z,
        regime=regime,
        scale_converged=converged,
    )
