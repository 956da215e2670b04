"""Helpers; imports core back to close an import cycle.

``draw`` holds the package's one deliberate RPR010 hazard: an unseeded
generator four calls below ``discover_facts``.
"""

import numpy as np

from . import core  # noqa: F401 — the cycle is the point


def draw(items):
    rng = np.random.default_rng()
    return rng.choice(list(items))


def helper(x):
    return x + 1
