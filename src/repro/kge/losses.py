"""Training losses for KGE models.

Four standard choices:

* :class:`MarginRankingLoss` — pairwise hinge on positive vs. negative
  scores (TransE's native loss);
* :class:`BCEWithLogitsLoss` — pointwise binary cross-entropy with
  optional label smoothing (ConvE's native loss, also the KvsAll loss);
* :class:`SelfAdversarialLoss` — negative-sampling loss with adversarial
  hard-negative weighting (RotatE's native loss);
* :class:`SoftmaxCrossEntropyLoss` — 1-vs-all multiclass loss over the
  object slot.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor
from ..autograd.ops import bce_with_logits

__all__ = [
    "MarginRankingLoss",
    "BCEWithLogitsLoss",
    "SelfAdversarialLoss",
    "SoftmaxCrossEntropyLoss",
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


class SelfAdversarialLoss:
    """Self-adversarial negative sampling loss (Sun et al., 2019 — RotatE).

    ``L = −log σ(γ + s⁺) − Σᵢ wᵢ log σ(−γ − s⁻ᵢ)`` where the negative
    weights ``wᵢ = softmax(α · s⁻ᵢ)`` are treated as constants (no
    gradient): hard negatives — the ones the model currently scores
    high — dominate the loss.
    """

    def __init__(self, margin: float = 6.0, temperature: float = 1.0) -> None:
        if margin <= 0:
            raise ValueError(f"margin must be positive, got {margin}")
        if temperature <= 0:
            raise ValueError(f"temperature must be positive, got {temperature}")
        self.margin = margin
        self.temperature = temperature

    def __call__(self, positive: Tensor, negative: Tensor) -> Tensor:
        if negative.ndim != 2:
            raise ValueError("negative scores must be (B, num_negatives)")
        # Adversarial weights, detached from the tape.
        logits = self.temperature * negative.data
        logits = logits - logits.max(axis=1, keepdims=True)
        weights = np.exp(logits)
        weights /= weights.sum(axis=1, keepdims=True)

        pos_term = (-(positive + self.margin)).softplus()
        neg_term = (Tensor(weights) * (negative + self.margin).softplus()).sum(axis=1)
        return (pos_term + neg_term).mean()


class SoftmaxCrossEntropyLoss:
    """1-vs-all cross-entropy: the true entity competes with all others."""

    def __call__(self, logits: Tensor, target_ids: np.ndarray) -> Tensor:
        target_ids = np.asarray(target_ids, dtype=np.int64)
        shifted = logits - logits.max(axis=1, keepdims=True).detach()
        log_norm = shifted.exp().sum(axis=1).log()
        batch = np.arange(len(target_ids))
        picked = shifted[batch, target_ids]
        return (log_norm - picked).mean()


def create_loss(name: str, **kwargs) -> object:
    """Loss factory used by the training configuration."""
    factories = {
        "margin": MarginRankingLoss,
        "bce": BCEWithLogitsLoss,
        "softmax": SoftmaxCrossEntropyLoss,
        "self_adversarial": SelfAdversarialLoss,
    }
    if name not in factories:
        raise KeyError(f"unknown loss {name!r}; available: {sorted(factories)}")
    return factories[name](**kwargs)
