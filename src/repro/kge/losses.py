"""Training losses for KGE models.

The two losses the paper's training regimes use:

* :class:`MarginRankingLoss` — pairwise hinge on positive vs. negative
  scores (TransE's native loss);
* :class:`BCEWithLogitsLoss` — pointwise binary cross-entropy with
  optional label smoothing (ConvE's native loss, also the KvsAll loss).
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor
from ..autograd.ops import bce_with_logits

__all__ = [
    "MarginRankingLoss",
    "BCEWithLogitsLoss",
    "create_loss",
]


class MarginRankingLoss:
    """``mean(max(0, margin − pos + neg))`` over aligned pairs.

    ``negative`` may have shape ``(B,)`` or ``(B, num_negatives)``; in the
    latter case the positive score is broadcast across its negatives.
    """

    def __init__(self, margin: float = 1.0) -> None:
        if margin <= 0:
            raise ValueError(f"margin must be positive, got {margin}")
        self.margin = margin

    def __call__(self, positive: Tensor, negative: Tensor) -> Tensor:
        if negative.ndim == 2 and positive.ndim == 1:
            positive = positive.reshape(-1, 1)
        violation = (self.margin - positive + negative).clamp_min(0.0)
        return violation.mean()


class BCEWithLogitsLoss:
    """Numerically-stable binary cross-entropy on raw scores.

    Uses ``softplus(-y·x)`` with targets mapped to ±1 internally, which is
    the stable form of ``-t log σ(x) − (1−t) log σ(−x)`` for hard targets.
    Label smoothing interpolates targets toward 0.5 before the loss, in
    which case the general form ``softplus(x) − t·x`` is used.  Both are
    computed by one fused tape node,
    :func:`~repro.autograd.ops.bce_with_logits`.
    """

    def __init__(self, label_smoothing: float = 0.0) -> None:
        if not 0.0 <= label_smoothing < 1.0:
            raise ValueError(
                f"label_smoothing must be in [0, 1), got {label_smoothing}"
            )
        self.label_smoothing = label_smoothing

    def __call__(self, logits: Tensor, targets: np.ndarray) -> Tensor:
        targets = np.asarray(targets, dtype=np.float64)
        if self.label_smoothing > 0.0:
            targets = (
                targets * (1.0 - self.label_smoothing)
                + self.label_smoothing / 2.0
            )
        return bce_with_logits(logits, targets)


def create_loss(name: str, **kwargs) -> object:
    """Loss factory used by the training configuration."""
    factories = {
        "margin": MarginRankingLoss,
        "bce": BCEWithLogitsLoss,
    }
    if name not in factories:
        raise KeyError(f"unknown loss {name!r}; available: {sorted(factories)}")
    return factories[name](**kwargs)
