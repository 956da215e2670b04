"""RPR010 bad fixture: hazards two calls below a pipeline entry point."""

import numpy as np

__all__ = ["train_model"]


def train_model(config):
    rng = _make_rng()
    return _collect(config, rng)


def _make_rng():
    return np.random.default_rng()


def _collect(config, rng):
    pending = {1, 2, 3}
    return list(pending)
