"""RPR010 bad fixture: a hazard reachable only through a callback.

``discover_facts`` never calls its ``generate`` closure; it hands it to
``_accumulate``, which calls it through a parameter.
"""

import numpy as np

__all__ = ["discover_facts"]


def discover_facts(kg):
    def generate(batch):
        return np.random.default_rng().permutation(batch)

    return _accumulate(kg, generate)


def _accumulate(kg, generate):
    return [generate(batch) for batch in kg]
