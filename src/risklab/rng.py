"""Deterministic stream splitting from a single master seed.

Routines that draw from one stream (data generation, splits, random
weights) take an integer seed or a ``numpy.random.Generator``, as
``numpy.random.default_rng`` does.  Chains and simulations derive their
streams through :func:`stream`, which maps a master seed and a path of
integers to an independent child stream.  The path is hashed into the
``spawn_key`` of a ``SeedSequence``, so stream ``(seed, 3, 7)`` is always
the same generator no matter how many other streams exist: adding chains
or runs never perturbs previously assigned streams.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream"]


def stream(master_seed: int, *path: int) -> np.random.Generator:
    """Return the child generator for ``path`` under ``master_seed``."""
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(p) for p in path))
    return np.random.default_rng(ss)
