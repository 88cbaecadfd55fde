"""Heavy-tailed rank recursion toolkit.

Simulation, closed-form theory, and estimation for the tail index and
extremal index of stationary rank sequences built from damped sums or
maxima of heavy-tailed follower scores and a preference term, plus
deterministic rank computation on explicit directed graphs.
"""

from .errors import (
    ConfigurationError,
    ConvergenceError,
    DataError,
    ParameterError,
    RankExtremesError,
    ResourceError,
)
from .experiments import ExperimentConfig, run_experiment

__version__ = "1.0.0"

__all__ = [
    "ConfigurationError",
    "ConvergenceError",
    "DataError",
    "ExperimentConfig",
    "ParameterError",
    "RankExtremesError",
    "ResourceError",
    "run_experiment",
]
