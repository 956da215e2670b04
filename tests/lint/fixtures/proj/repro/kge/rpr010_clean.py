"""RPR010 clean fixture: seeded RNG and ordered iteration throughout."""

import numpy as np

__all__ = ["spawn", "train_model"]


def train_model(config, seed):
    rng = np.random.default_rng(seed)
    pending = {3, 1, 2}
    return [rng.random() for _ in sorted(pending)]


def spawn(seed):
    # A keyword seed is a seed.
    streams = np.random.SeedSequence(entropy=seed).spawn(2)
    return np.random.default_rng(seed=streams[0])
