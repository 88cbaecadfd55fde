"""Deterministic RNG stream derivation.

Every stochastic operation takes a single integer root seed.  Independent
streams (replications, follower columns, in-degrees, preference draws) are
derived with :func:`child_rng` from the root seed and a tuple of small
integers naming the stream.  The splitting rule is
``SeedSequence(entropy=root_seed, spawn_key=path)``, so a given
``(seed, path)`` pair always yields the same bit stream, independent of
call order or thread scheduling.  A sampler's ``rng`` argument is a root
seed or a ``Generator``; :func:`as_generator` resolves it.
"""

from __future__ import annotations

import numpy as np

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
    """Seed sequence for the stream named by ``path`` under ``seed``."""
    return np.random.SeedSequence(entropy=seed, spawn_key=tuple(path))


def child_rng(seed: int, *path: int) -> np.random.Generator:
    """Fresh generator for the stream named by ``path`` under ``seed``."""
    return np.random.default_rng(child_seed(seed, *path))


def child_rng_at(seed: int, offset: int, *path: int) -> np.random.Generator:
    """``child_rng(seed, *path)`` with its first ``offset`` outputs skipped.

    The default bit generator, PCG64, jumps ahead in ``O(log offset)`` steps.
    ``Generator.random`` takes one 64-bit output per double, so the
    generator's ``random(b)`` equals the last ``b`` values of
    ``child_rng(seed, *path).random(offset + b)``.
    """
    rng = child_rng(seed, *path)
    rng.bit_generator.advance(offset)
    return rng


def as_generator(rng: int | np.random.Generator, *path: int) -> np.random.Generator:
    """``rng`` as given when it is a ``Generator``; for an integer root
    seed, the default stream ``child_rng(rng, *path)``."""
    return rng if isinstance(rng, np.random.Generator) else child_rng(rng, *path)


def replication_seed(seed: int, rep: int) -> int:
    """Independent integer seed for replication ``rep`` of a root seed."""
    ss = child_seed(seed, STREAMS["replication"], rep)
    return int(ss.generate_state(1, np.uint64)[0])
