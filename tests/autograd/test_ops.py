"""Tests for the compound ops: conv2d, circular correlation, dropout, BCE."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import (
    Tensor,
    bce_with_logits,
    circular_convolution,
    circular_correlation,
    conv2d,
    dropout,
)

from ..helpers import check_gradients

RNG = np.random.default_rng(7)


def naive_circular_correlation(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = a.shape[-1]
    out = np.zeros_like(a)
    for k in range(d):
        for i in range(d):
            out[..., k] += a[..., i] * b[..., (i + k) % d]
    return out


def naive_circular_convolution(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = a.shape[-1]
    out = np.zeros_like(a)
    for k in range(d):
        for i in range(d):
            out[..., k] += a[..., i] * b[..., (k - i) % d]
    return out


def naive_conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray | None) -> np.ndarray:
    batch, _, height, width = x.shape
    out_c, in_c, kh, kw = w.shape
    out = np.zeros((batch, out_c, height - kh + 1, width - kw + 1))
    for n in range(batch):
        for c in range(out_c):
            for i in range(out.shape[2]):
                for j in range(out.shape[3]):
                    out[n, c, i, j] = np.sum(
                        x[n, :, i : i + kh, j : j + kw] * w[c]
                    )
            if b is not None:
                out[n, c] += b[c]
    return out


class TestCircularOps:
    def test_correlation_matches_naive(self):
        a = RNG.normal(size=(3, 8))
        b = RNG.normal(size=(3, 8))
        out = circular_correlation(Tensor(a), Tensor(b)).data
        np.testing.assert_allclose(out, naive_circular_correlation(a, b), atol=1e-10)

    def test_convolution_matches_naive(self):
        a = RNG.normal(size=(2, 6))
        b = RNG.normal(size=(2, 6))
        out = circular_convolution(Tensor(a), Tensor(b)).data
        np.testing.assert_allclose(out, naive_circular_convolution(a, b), atol=1e-10)

    def test_correlation_gradient_wrt_a(self):
        b = RNG.normal(size=(2, 5))
        check_gradients(
            lambda x: circular_correlation(x, Tensor(b)), RNG.normal(size=(2, 5))
        )

    def test_correlation_gradient_wrt_b(self):
        a = RNG.normal(size=(2, 5))
        check_gradients(
            lambda x: circular_correlation(Tensor(a), x), RNG.normal(size=(2, 5))
        )

    def test_convolution_gradient_wrt_a(self):
        b = RNG.normal(size=(2, 5))
        check_gradients(
            lambda x: circular_convolution(x, Tensor(b)), RNG.normal(size=(2, 5))
        )

    def test_convolution_gradient_wrt_b(self):
        a = RNG.normal(size=(2, 5))
        check_gradients(
            lambda x: circular_convolution(Tensor(a), x), RNG.normal(size=(2, 5))
        )

    def test_hole_identity_score_equals_convolution_form(self):
        """rᵀ(s ⋆ o) == oᵀ(s ∗ r) — the identity behind HolE's score_sp."""
        s = RNG.normal(size=(4, 8))
        r = RNG.normal(size=(4, 8))
        o = RNG.normal(size=(4, 8))
        lhs = (r * naive_circular_correlation(s, o)).sum(axis=1)
        rhs = (o * naive_circular_convolution(s, r)).sum(axis=1)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_hole_identity_subject_form(self):
        """rᵀ(s ⋆ o) == sᵀ(r ⋆ o) — the identity behind HolE's score_po."""
        s = RNG.normal(size=(4, 8))
        r = RNG.normal(size=(4, 8))
        o = RNG.normal(size=(4, 8))
        lhs = (r * naive_circular_correlation(s, o)).sum(axis=1)
        rhs = (s * naive_circular_correlation(r, o)).sum(axis=1)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestConv2d:
    def test_forward_matches_naive(self):
        x = RNG.normal(size=(2, 3, 6, 5))
        w = RNG.normal(size=(4, 3, 3, 3))
        b = RNG.normal(size=4)
        out = conv2d(Tensor(x), Tensor(w), Tensor(b)).data
        np.testing.assert_allclose(out, naive_conv2d(x, w, b), atol=1e-10)

    def test_forward_without_bias(self):
        x = RNG.normal(size=(1, 1, 4, 4))
        w = RNG.normal(size=(2, 1, 2, 2))
        out = conv2d(Tensor(x), Tensor(w)).data
        np.testing.assert_allclose(out, naive_conv2d(x, w, None), atol=1e-10)

    def test_output_shape(self):
        x = Tensor(np.zeros((3, 2, 10, 8)))
        w = Tensor(np.zeros((5, 2, 3, 3)))
        assert conv2d(x, w).shape == (3, 5, 8, 6)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 2, 2))))

    def test_gradient_wrt_input(self):
        w = RNG.normal(size=(2, 1, 2, 2))
        check_gradients(
            lambda x: conv2d(x, Tensor(w)), RNG.normal(size=(2, 1, 4, 4)),
            rtol=1e-3,
        )

    def test_gradient_wrt_weight(self):
        x = RNG.normal(size=(2, 2, 4, 4))
        check_gradients(
            lambda w: conv2d(Tensor(x), w), RNG.normal(size=(3, 2, 2, 2)),
            rtol=1e-3,
        )

    def test_gradient_wrt_bias(self):
        x = RNG.normal(size=(2, 1, 3, 3))
        w = RNG.normal(size=(2, 1, 2, 2))
        check_gradients(
            lambda b: conv2d(Tensor(x), Tensor(w), b), RNG.normal(size=(2,)),
            rtol=1e-3,
        )


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = Tensor(RNG.normal(size=(5, 5)))
        out = dropout(x, 0.5, np.random.default_rng(0), training=False)
        np.testing.assert_array_equal(out.data, x.data)

    def test_zero_rate_is_identity(self):
        x = Tensor(RNG.normal(size=(5,)))
        out = dropout(x, 0.0, np.random.default_rng(0), training=True)
        np.testing.assert_array_equal(out.data, x.data)

    def test_invalid_rate_raises(self):
        with pytest.raises(ValueError):
            dropout(Tensor([1.0]), 1.0, np.random.default_rng(0), training=True)

    def test_survivors_are_rescaled(self):
        x = Tensor(np.ones(10_000))
        out = dropout(x, 0.4, np.random.default_rng(0), training=True)
        surviving = out.data[out.data > 0]
        np.testing.assert_allclose(surviving, 1.0 / 0.6)
        # Expected value is preserved approximately.
        assert abs(out.data.mean() - 1.0) < 0.05

    def test_gradient_masks_match_forward(self):
        x = Tensor(np.ones(1000), requires_grad=True)
        out = dropout(x, 0.5, np.random.default_rng(3), training=True)
        out.sum().backward()
        dropped = out.data == 0
        np.testing.assert_array_equal(x.grad[dropped], 0.0)
        np.testing.assert_allclose(x.grad[~dropped], 2.0)


def _bits(array) -> np.ndarray:
    return np.ascontiguousarray(array).view(np.uint64)


def _chained_bce(logits: Tensor, targets: np.ndarray) -> Tensor:
    """The BCE tape chain the fused node replaces."""
    if np.all((targets == 0.0) | (targets == 1.0)):
        return (logits * (-(2.0 * targets - 1.0))).softplus().mean()
    return (logits.softplus() - logits * targets).mean()


class TestBCEWithLogits:
    @pytest.mark.parametrize("smoothing", [0.0, 0.1])
    @pytest.mark.parametrize(
        "view",
        [lambda a: a, lambda a: a.T, lambda a: a[:, ::2]],
        ids=["contiguous", "transposed", "strided"],
    )
    def test_bitwise_equal_to_chained_composition(self, smoothing, view):
        base = RNG.normal(scale=4.0, size=(12, 18))
        base[0, :3] = [600.0, -600.0, 0.0]
        targets = (RNG.random(view(base).shape) < 0.2).astype(np.float64)
        targets = targets * (1.0 - smoothing) + smoothing / 2.0
        fused_x = Tensor(view(base), requires_grad=True)
        chained_x = Tensor(view(base), requires_grad=True)
        fused = bce_with_logits(fused_x, targets)
        chained = _chained_bce(chained_x, targets)
        fused.backward()
        chained.backward()
        assert _bits(fused.data) == _bits(chained.data)
        np.testing.assert_array_equal(_bits(fused_x.grad), _bits(chained_x.grad))
        assert fused_x.grad.strides == chained_x.grad.strides

    def test_soft_targets_use_general_form(self):
        x = Tensor(RNG.normal(size=(4, 5)), requires_grad=True)
        y = Tensor(x.data, requires_grad=True)
        targets = RNG.random((4, 5))
        bce_with_logits(x, targets).backward()
        _chained_bce(y, targets).backward()
        np.testing.assert_array_equal(_bits(x.grad), _bits(y.grad))

    def test_gradient_matches_finite_differences(self):
        targets = np.asarray([[1.0, 0.0, 0.3], [0.0, 1.0, 0.9]])
        check_gradients(
            lambda x: bce_with_logits(x, targets), RNG.normal(size=(2, 3))
        )

    def test_one_tape_node(self):
        x = Tensor(RNG.normal(size=(3, 3)), requires_grad=True)
        loss = bce_with_logits(x, np.zeros((3, 3)))
        assert loss._parents == (x,)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            bce_with_logits(Tensor(np.zeros((2, 3))), np.zeros(3))
