"""RPR010 bad fixture: hazards outside any function body.

A module-level generator, a class attribute and a default argument are
all evaluated at import time; a literal ``None`` seed is no seed.
"""

import numpy as np

RNG = np.random.default_rng()


class Sampler:
    stream = np.random.SeedSequence(entropy=None)


def draw(rng=np.random.default_rng(seed=None)):
    return rng.random()
