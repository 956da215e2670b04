"""Compound autodiff operations used by the KGE models.

These are the operations that do not decompose nicely into the elementwise
primitives on :class:`~repro.autograd.tensor.Tensor`:

* batched circular correlation / convolution (HolE scoring, via FFT),
* 2-D convolution (ConvE, via im2col),
* dropout,
* mean binary cross-entropy on logits (the BCE loss as one tape node).
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, _sigmoid, _softplus, is_grad_enabled

__all__ = [
    "bce_with_logits",
    "circular_correlation",
    "circular_convolution",
    "conv2d",
    "dropout",
]


def _rfft_corr(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise circular correlation computed in the Fourier domain."""
    n = a.shape[-1]
    return np.fft.irfft(np.conj(np.fft.rfft(a)) * np.fft.rfft(b), n=n)


def _rfft_conv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise circular convolution computed in the Fourier domain."""
    n = a.shape[-1]
    return np.fft.irfft(np.fft.rfft(a) * np.fft.rfft(b), n=n)


def circular_correlation(a: Tensor, b: Tensor) -> Tensor:
    """Batched circular correlation ``(a ⋆ b)_k = Σ_i a_i b_{(i+k) mod d}``.

    This is the compositional operator of HolE.  Both arguments must share
    their trailing dimension; broadcasting applies to leading dimensions.
    """
    out_data = _rfft_corr(a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        # d/da = grad ⋆ b ; d/db = grad * a (circular convolution).
        if a.requires_grad:
            a._accumulate(_rfft_corr(grad, b.data))
        if b.requires_grad:
            b._accumulate(_rfft_conv(grad, a.data))

    return Tensor._make(out_data, (a, b), backward)


def circular_convolution(a: Tensor, b: Tensor) -> Tensor:
    """Batched circular convolution ``(a * b)_k = Σ_i a_i b_{(k-i) mod d}``."""
    out_data = _rfft_conv(a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_rfft_corr(b.data, grad))
        if b.requires_grad:
            b._accumulate(_rfft_corr(a.data, grad))

    return Tensor._make(out_data, (a, b), backward)


def _im2col(
    x: np.ndarray, kernel_h: int, kernel_w: int
) -> tuple[np.ndarray, int, int]:
    """Unfold ``x`` of shape (B, C, H, W) into (B, out_h*out_w, C*kh*kw)."""
    batch, channels, height, width = x.shape
    out_h = height - kernel_h + 1
    out_w = width - kernel_w + 1
    strides = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(batch, channels, out_h, out_w, kernel_h, kernel_w),
        strides=(
            strides[0],
            strides[1],
            strides[2],
            strides[3],
            strides[2],
            strides[3],
        ),
        writeable=False,
    )
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(
        batch, out_h * out_w, channels * kernel_h * kernel_w
    )
    return np.ascontiguousarray(cols), out_h, out_w


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Valid (unpadded), stride-1 2-D convolution.

    Parameters
    ----------
    x:
        Input of shape ``(B, C_in, H, W)``.
    weight:
        Filters of shape ``(C_out, C_in, kh, kw)``.
    bias:
        Optional per-filter bias of shape ``(C_out,)``.

    Returns a tensor of shape ``(B, C_out, H-kh+1, W-kw+1)``.
    """
    out_channels, in_channels, kernel_h, kernel_w = weight.shape
    if x.shape[1] != in_channels:
        raise ValueError(
            f"conv2d channel mismatch: input has {x.shape[1]}, "
            f"weight expects {in_channels}"
        )
    cols, out_h, out_w = _im2col(x.data, kernel_h, kernel_w)
    w_mat = weight.data.reshape(out_channels, -1)  # (C_out, C_in*kh*kw)
    out = cols @ w_mat.T  # (B, out_h*out_w, C_out)
    if bias is not None:
        out = out + bias.data
    batch = x.shape[0]
    out_data = out.transpose(0, 2, 1).reshape(batch, out_channels, out_h, out_w)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        grad_mat = grad.reshape(batch, out_channels, out_h * out_w).transpose(0, 2, 1)
        if weight.requires_grad:
            grad_w = np.einsum("bpo,bpk->ok", grad_mat, cols)
            weight._accumulate(grad_w.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad_mat.sum(axis=(0, 1)))
        if x.requires_grad:
            grad_cols = grad_mat @ w_mat  # (B, out_h*out_w, C_in*kh*kw)
            grad_cols = grad_cols.reshape(
                batch, out_h, out_w, in_channels, kernel_h, kernel_w
            )
            # col2im runs channels-last so every per-tap add walks the
            # matmul output in memory order (the channel axis is the
            # contiguous one on both sides); a single transpose copy at
            # the end restores NCHW.  Per-element additions happen in
            # the same tap order as the naive NCHW loop, so the result
            # is bitwise identical.
            grad_t = np.zeros(
                (batch, x.shape[2], x.shape[3], in_channels), dtype=x.data.dtype
            )
            for i in range(kernel_h):
                for j in range(kernel_w):
                    grad_t[:, i : i + out_h, j : j + out_w, :] += grad_cols[
                        :, :, :, :, i, j
                    ]
            x._accumulate(np.ascontiguousarray(grad_t.transpose(0, 3, 1, 2)))

    return Tensor._make(out_data, parents, backward)


def dropout(x: Tensor, rate: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout: zero a ``rate`` fraction and rescale survivors."""
    if not training or rate <= 0.0:
        return x
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    keep = 1.0 - rate
    mask = (rng.random(x.shape) < keep) / keep
    out_data = x.data * mask

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * mask)

    if not is_grad_enabled():
        return Tensor(out_data)
    return Tensor._make(out_data, (x,), backward)


def bce_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross-entropy of ``logits`` against ``targets``, one node.

    Hard targets (all 0 or 1) use ``softplus(−s·x)`` with signs
    ``s = 2t − 1``; any other targets use ``softplus(x) − t·x``.  The
    forward pass runs the same ufunc sequence as the chained composition
    ``(logits.softplus() - logits * targets).mean()`` (or
    ``(logits * -s).softplus().mean()``), and the backward pass
    recomputes ``σ`` from the logits with ``Tensor.softplus``'s own
    helper rather than reusing the forward's ``exp(−|x|)``.  The chain
    adds exactly two terms into ``logits.grad`` (one for hard targets),
    so both give the same bits; this node replaces the chain's six tape
    nodes (softplus, mul, neg, add, sum, scalar mul) and their ``B×N``
    gradients.
    """
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != logits.shape:
        raise ValueError(
            f"targets shape {targets.shape} does not match logits {logits.shape}"
        )
    x = logits.data
    inv_size = 1.0 / x.size
    if np.all((targets == 0.0) | (targets == 1.0)):
        neg_signs = -(2.0 * targets - 1.0)
        y = x * neg_signs
        out_data = _softplus(y).sum() * inv_size

        def backward(grad: np.ndarray) -> None:
            logits._accumulate(_sigmoid(y) * (grad * inv_size) * neg_signs)

    else:
        out_data = (_softplus(x) - x * targets).sum() * inv_size

        def backward(grad: np.ndarray) -> None:
            c = grad * inv_size
            logits._accumulate(_sigmoid(x) * c - c * targets)

    return Tensor._make(out_data, (logits,), backward)
