"""RPR010 bad fixture: hazards in code no pipeline entry point calls.

Nothing in ``repro.discovery`` or ``repro.kge`` reaches this module;
its hazards are flagged all the same.
"""

import numpy as np


class Backoff:
    def jitter(self):
        return np.random.default_rng(None).random()


def spread(hosts):
    return list(set(hosts))
