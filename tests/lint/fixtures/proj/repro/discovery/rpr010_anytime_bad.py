"""RPR010 bad fixture: a hazard reachable only from ``anytime_discover``.

``discover_facts`` is clean; the unseeded generator sits below the other
public entry point, which a fixed list of entry names would miss.
"""

import numpy as np

__all__ = ["anytime_discover", "discover_facts"]


def discover_facts(kg, seed):
    return np.random.default_rng(seed).permutation(kg)


def anytime_discover(kg):
    return _pull(kg)


def _pull(kg):
    return np.random.default_rng().permutation(kg)
