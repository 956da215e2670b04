"""RPR010 bad fixture: a hazard reachable only through a lambda argument.

``anytime_discover`` picks an arm with ``max(..., key=lambda a: ...)``;
the unseeded generator sits in the method the lambda calls on ``a``.
"""

import numpy as np

__all__ = ["anytime_discover"]


class _Arm:
    def __init__(self, relation):
        self.relation = relation

    def ucb_score(self, total_pulls):
        return np.random.default_rng().random() + total_pulls


def anytime_discover(relations, total_pulls):
    arms = [_Arm(relation) for relation in relations]
    return max(arms, key=lambda a: a.ucb_score(total_pulls))
