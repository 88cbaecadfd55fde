"""Deterministic RNG stream derivation.

Every stochastic operation takes a single integer root seed, which must be
nonnegative.  Independent streams (replications, follower columns,
in-degrees, preference draws) are derived with :func:`child_rng` from the
root seed and a tuple of small integers naming the stream.  The splitting
rule is ``SeedSequence(entropy=root_seed, spawn_key=path)``, so a given
``(seed, path)`` pair always yields the same bit stream, independent of
call order.  A block source derives each of its streams once and takes
every block's values from the next draws of that generator, in row order.
A sampler's ``rng`` argument is a root seed or a ``Generator``;
:func:`as_generator` resolves it.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError

# Stream name -> spawn-key component.  Keeping the map explicit documents
# the derivation rule and avoids collisions between modules.
STREAMS = {
    "in_degree": 1,
    "preference": 2,
    "column": 3,
    "replication": 4,
    "graph": 5,
    "walk": 6,
    "tbt": 7,
}


def child_seed(seed: int, *path: int) -> np.random.SeedSequence:
    """Seed sequence for the stream named by ``path`` under ``seed``; a
    negative seed is a ``ParameterError``."""
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    return np.random.SeedSequence(entropy=seed, spawn_key=tuple(path))


def child_rng(seed: int, *path: int) -> np.random.Generator:
    """Fresh generator for the stream named by ``path`` under ``seed``."""
    return np.random.default_rng(child_seed(seed, *path))


def as_generator(rng: int | np.random.Generator, *path: int) -> np.random.Generator:
    """``rng`` as given when it is a ``Generator``; for an integer root
    seed, the default stream ``child_rng(rng, *path)``."""
    return rng if isinstance(rng, np.random.Generator) else child_rng(rng, *path)


def replication_seed(seed: int, rep: int) -> int:
    """Independent integer seed for replication ``rep`` of a root seed."""
    ss = child_seed(seed, STREAMS["replication"], rep)
    return int(ss.generate_state(1, np.uint64)[0])
