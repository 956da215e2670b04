"""Deterministic per-key RNG streams via seed-sequence spawning.

``spawn_stream(seed, *key)`` gives every key (discovery uses the
relation id) its own statistically independent stream derived from the
base seed — the standard :class:`numpy.random.SeedSequence` spawn-key
construction — so results do not depend on the order keys are visited.
"""

from __future__ import annotations

import numpy as np

__all__ = ["spawn_stream"]


def spawn_stream(seed: int, *spawn_key: int) -> np.random.Generator:
    """A generator for the stream ``spawn_key`` derived from ``seed``.

    With an empty ``spawn_key`` this is exactly
    ``np.random.default_rng(seed)``.
    """
    if not spawn_key:
        return np.random.default_rng(seed)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=spawn_key))
