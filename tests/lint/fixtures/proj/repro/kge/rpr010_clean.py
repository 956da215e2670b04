"""RPR010 clean fixture: seeded RNG and ordered iteration throughout."""

import numpy as np

__all__ = ["train_model"]


def train_model(config, seed):
    rng = np.random.default_rng(seed)
    pending = {3, 1, 2}
    return [rng.random() for _ in sorted(pending)]
