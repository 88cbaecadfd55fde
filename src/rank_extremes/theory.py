"""Closed-form tail and extremal indices of weighted sums and maxima.

These predictors are the ground truth the Monte-Carlo experiments are
checked against.  They cover three settings:

* a unique minimal tail index among the components (min rule),
* equal tail indices (weighted-average extremal index),
* random-length aggregates with a preference term (two regimes,
  preference-dominant and followers-dominant).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .heavytail import TailSpec

MIN_RULE = "MIN_RULE"
EQUAL_TAILS = "EQUAL_TAILS"
PREFERENCE_DOMINATES = "PREFERENCE_DOMINATES"
FOLLOWERS_DOMINATE = "FOLLOWERS_DOMINATE"

# Partial sums of the scale series must stop moving, in relative terms, by
# the last configured follower; otherwise the series is reported as divergent.
SCALE_STABILIZATION_RTOL = 1e-9


@dataclass(frozen=True)
class Component:
    """One weighted component: weight ``z``, marginal tail, extremal index."""

    z: float
    tail: TailSpec
    theta: float

    def __post_init__(self):
        if not (self.z > 0 and np.isfinite(self.z)):
            raise ParameterError(f"weight must be positive, got {self.z}")
        if not (0 < self.theta <= 1):
            raise ParameterError(f"extremal index must be in (0, 1], got {self.theta}")


@dataclass(frozen=True)
class ComponentSpec:
    """Nonempty list of components entering a weighted sum or maximum."""

    components: tuple[Component, ...]

    def __post_init__(self):
        if len(self.components) == 0:
            raise ParameterError("component list must be nonempty")

    @classmethod
    def build(cls, zs, ks, cs, thetas) -> "ComponentSpec":
        items = tuple(
            Component(z=float(z), tail=TailSpec(float(k), float(c)), theta=float(t))
            for z, k, c, t in zip(zs, ks, cs, thetas, strict=True)
        )
        return cls(items)

    @property
    def ks(self) -> np.ndarray:
        return np.array([comp.tail.k for comp in self.components])

    @property
    def zs(self) -> np.ndarray:
        return np.array([comp.z for comp in self.components])

    @property
    def cs(self) -> np.ndarray:
        return np.array([comp.tail.c for comp in self.components])

    @property
    def thetas(self) -> np.ndarray:
        return np.array([comp.theta for comp in self.components])


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


def predict_min_rule(spec: ComponentSpec) -> TheoryPrediction:
    """Prediction when exactly one component attains the minimal tail index.

    The heaviest component wins outright: ``k(z) = k_m``,
    ``theta(z) = theta_m``, ``c(z) = c_m * z_m**k_m``.  Weights and scales
    of the lighter components do not enter.
    """
    ks = spec.ks
    m = int(np.argmin(ks))
    k_min = ks[m]
    if np.sum(np.isclose(ks, k_min, rtol=0.0, atol=0.0)) > 1:
        raise ParameterError(
            "tied minimal tail index: use predict_equal_tails for equal tails; "
            "ties across unequal groups are outside the supported settings"
        )
    comp = spec.components[m]
    return TheoryPrediction(
        k_of_z=float(k_min),
        theta_of_z=float(comp.theta),
        c_of_z=float(comp.tail.c * comp.z**k_min),
        regime=MIN_RULE,
    )


def predict_equal_tails(spec: ComponentSpec) -> TheoryPrediction:
    """Prediction when all components share the same tail index ``k``.

    ``theta(z)`` is the ``c_i * z_i**k``-weighted average of the component
    extremal indices; ``c(z)`` is the corresponding total scale.
    """
    ks = spec.ks
    k = float(ks[0])
    if not np.all(ks == k):
        raise ParameterError("predict_equal_tails requires equal tail indices")
    w = spec.cs * spec.zs**k
    c_of_z = float(w.sum())
    # an average of indices in (0, 1]; rounding alone can push it past 1
    theta = min(1.0, float(np.dot(w, spec.thetas) / c_of_z))
    return TheoryPrediction(k_of_z=k, theta_of_z=theta, c_of_z=c_of_z, regime=EQUAL_TAILS)


def predict_random_length(
    followers: ComponentSpec,
    alpha: float,
    beta: float,
    z_star: float,
) -> TheoryPrediction:
    """Prediction for the random-length aggregate with a preference term.

    Followers must share a common tail index ``k``; ``alpha`` is the
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
    ks = followers.ks
    k = float(ks[0])
    if not np.all(ks == k):
        raise ParameterError("followers must share a common tail index")

    w = followers.cs * followers.zs**k
    partial = np.cumsum(w)
    c_of_z = float(partial[-1])
    converged = len(w) == 1 or bool(w[-1] / partial[-1] <= SCALE_STABILIZATION_RTOL)

    k_of_z = min(k, alpha, beta)
    if k >= beta:
        theta = float(z_star**beta)
        regime = PREFERENCE_DOMINATES
    else:
        # an average of indices in (0, 1]; rounding alone can push it past 1
        theta = min(1.0, float(np.dot(w, followers.thetas) / c_of_z))
        regime = FOLLOWERS_DOMINATE
    return TheoryPrediction(
        k_of_z=k_of_z,
        theta_of_z=theta,
        c_of_z=c_of_z,
        regime=regime,
        scale_converged=converged,
    )
