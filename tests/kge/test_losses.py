"""Loss-function tests: exact values and gradient direction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.kge import BCEWithLogitsLoss, MarginRankingLoss, create_loss


class TestMarginRankingLoss:
    def test_no_violation_is_zero(self):
        loss = MarginRankingLoss(margin=1.0)
        value = loss(Tensor([5.0, 5.0]), Tensor([1.0, 1.0]))
        assert value.item() == 0.0

    def test_exact_violation_value(self):
        loss = MarginRankingLoss(margin=1.0)
        # margin - pos + neg = 1 - 1 + 0.5 = 0.5
        value = loss(Tensor([1.0]), Tensor([0.5]))
        assert value.item() == pytest.approx(0.5)

    def test_broadcast_over_negatives(self):
        loss = MarginRankingLoss(margin=1.0)
        pos = Tensor([2.0])
        neg = Tensor([[2.0, 0.0]])  # violations: 1.0 and 0.0
        assert loss(pos, neg).item() == pytest.approx(0.5)

    def test_invalid_margin(self):
        with pytest.raises(ValueError):
            MarginRankingLoss(margin=0.0)

    def test_gradient_pushes_scores_apart(self):
        pos = Tensor([0.0], requires_grad=True)
        neg = Tensor([0.0], requires_grad=True)
        MarginRankingLoss(margin=1.0)(pos, neg).backward()
        assert pos.grad[0] < 0  # increase positive score
        assert neg.grad[0] > 0  # decrease negative score


class TestBCEWithLogitsLoss:
    def test_matches_reference_hard_targets(self):
        logits = np.asarray([2.0, -1.0, 0.5])
        targets = np.asarray([1.0, 0.0, 1.0])
        loss = BCEWithLogitsLoss()(Tensor(logits), targets).item()
        p = 1 / (1 + np.exp(-logits))
        expected = -(targets * np.log(p) + (1 - targets) * np.log(1 - p)).mean()
        assert loss == pytest.approx(expected, rel=1e-10)

    def test_matches_reference_smoothed(self):
        logits = np.asarray([2.0, -1.0])
        targets = np.asarray([1.0, 0.0])
        smoothing = 0.2
        loss = BCEWithLogitsLoss(label_smoothing=smoothing)(
            Tensor(logits), targets
        ).item()
        smoothed = targets * (1 - smoothing) + smoothing / 2
        p = 1 / (1 + np.exp(-logits))
        expected = -(smoothed * np.log(p) + (1 - smoothed) * np.log(1 - p)).mean()
        assert loss == pytest.approx(expected, rel=1e-10)

    def test_stable_at_extreme_logits(self):
        loss = BCEWithLogitsLoss()(
            Tensor([1000.0, -1000.0]), np.asarray([1.0, 0.0])
        ).item()
        assert np.isfinite(loss)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_invalid_smoothing(self):
        with pytest.raises(ValueError):
            BCEWithLogitsLoss(label_smoothing=1.0)

    def test_gradient_direction(self):
        logits = Tensor([0.0, 0.0], requires_grad=True)
        BCEWithLogitsLoss()(logits, np.asarray([1.0, 0.0])).backward()
        assert logits.grad[0] < 0  # push positive logit up
        assert logits.grad[1] > 0  # push negative logit down


class TestFactory:
    def test_creates_each(self):
        assert isinstance(create_loss("margin"), MarginRankingLoss)
        assert isinstance(create_loss("bce"), BCEWithLogitsLoss)

    def test_kwargs_forwarded(self):
        loss = create_loss("margin", margin=3.0)
        assert loss.margin == 3.0

    @pytest.mark.parametrize("name", ["focal", "softmax", "self_adversarial"])
    def test_unknown_raises(self, name):
        with pytest.raises(KeyError, match="available: \\['bce', 'margin'\\]"):
            create_loss(name)
