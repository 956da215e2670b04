"""Reverse-mode automatic differentiation over numpy arrays.

This module implements the minimal tensor engine needed to train every
knowledge-graph embedding model in :mod:`repro.kge` — including the
convolutional ConvE model — without any deep-learning framework.

The design follows the classic tape-based approach: every operation on a
:class:`Tensor` records a backward closure on its output node.  Calling
:meth:`Tensor.backward` performs a topological sort of the graph and
propagates gradients from the output back to every tensor created with
``requires_grad=True``.

Broadcasting is fully supported: gradients flowing into a broadcast operand
are summed over the broadcast axes so that ``grad.shape == data.shape``
always holds.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from .sparse import SparseGrad, row_segment_sum

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "concatenate", "stack"]


class _GradMode(threading.local):
    """The tape switch, one per thread; every thread starts with it on.

    Server workers enter ``no_grad`` concurrently; with one shared flag,
    overlapping blocks could leave recording off for every thread.
    """

    enabled = True


_GRAD_MODE = _GradMode()


class no_grad:
    """Context manager that disables gradient tape recording.

    Used during evaluation and fact-discovery inference, where only forward
    scores are needed and tape bookkeeping would waste time and memory.
    The switch is per thread; other threads keep their own setting.
    """

    def __enter__(self) -> "no_grad":
        self._prev = _GRAD_MODE.enabled
        _GRAD_MODE.enabled = False
        return self

    def __exit__(self, *exc_info: object) -> None:
        _GRAD_MODE.enabled = self._prev


def is_grad_enabled() -> bool:
    """Return whether operations on this thread record the autodiff tape."""
    return _GRAD_MODE.enabled


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, clipped so ``exp`` cannot overflow."""
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500, 500)))


def _softplus(x: np.ndarray) -> np.ndarray:
    """Numerically stable ``log(1 + exp(x)) = max(x, 0) + log1p(exp(-|x|))``."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over axes that were broadcast to reach ``grad.shape``.

    The returned array always has exactly ``shape``.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with reverse-mode gradient support.

    Parameters
    ----------
    data:
        Array-like payload; converted to ``float64`` by default because the
        KGE training loops are small and precision aids test stability.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.

    When :attr:`sparse_grad` is set (opt-in, leaf parameters only),
    row-lookup gradients arrive as :class:`~repro.autograd.sparse.SparseGrad`
    instead of dense scatter-adds; a dense contribution to the same
    parameter densifies the accumulated gradient automatically.

    :attr:`_catch_up`, when set by a lazy row-sparse optimizer, is
    called with the requested row ids at the top of :meth:`gather_rows`
    so deferred updates to exactly those rows are settled *before* the
    forward pass reads them — the dense path computes gradients from
    fully-updated parameters, and bit-identity requires the sparse path
    to observe the same values.
    """

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "sparse_grad",
        "_backward",
        "_parents",
        "_catch_up",
    )

    # Make numpy defer mixed ndarray/Tensor arithmetic to the reflected
    # operators below instead of trying to coerce the Tensor itself.
    __array_ufunc__ = None

    def __init__(
        self,
        data: np.ndarray | float | int | Sequence,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward: Callable[[np.ndarray], None] | None = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad) and _GRAD_MODE.enabled
        self.sparse_grad = False
        self._catch_up: Callable[[np.ndarray], None] | None = None
        self.grad: np.ndarray | SparseGrad | None = None
        self._parents = _parents if self.requires_grad or _parents else ()
        self._backward = _backward

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut off from the tape."""
        return Tensor(self.data, requires_grad=False)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Iterable["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        parents = tuple(parents)
        needs_grad = _GRAD_MODE.enabled and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=needs_grad)
        if needs_grad:
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray | SparseGrad) -> None:
        """Add one gradient contribution into :attr:`grad`.

        Ownership rule: the first dense contribution is stored as-is when
        it already has the layout ``np.zeros_like(self.data)`` would give
        (same shape and dtype, both C-contiguous), and copied into that
        layout otherwise.  A stored array may be shared — ``__add__``
        hands one array to both parents, ``reshape`` passes a view — so
        it is never written in place: later contributions are summed
        into a fresh ``np.empty_like`` array.  The bits equal the old
        ``zeros_like``-then-``+=`` accumulation; only the sign of a zero
        first contribution can differ, which :mod:`.sparse` already
        tolerates.
        """
        if not self.requires_grad:
            return
        current = self.grad
        if isinstance(grad, SparseGrad):
            # Row-sparse contribution (from a sparse-flagged row lookup).
            if current is None:
                self.grad = grad
            elif isinstance(current, SparseGrad):
                self.grad = current.merged_with(grad)
            else:
                dense = np.empty_like(current)
                dense[...] = current
                grad.add_into_dense(dense)
                self.grad = dense
            return
        if current is None:
            if (
                grad.shape == self.data.shape
                and grad.dtype == self.data.dtype
                and grad.flags.c_contiguous
                and self.data.flags.c_contiguous
            ):
                self.grad = grad
            else:
                owned = np.empty_like(self.data)
                owned[...] = grad
                self.grad = owned
            return
        if isinstance(current, SparseGrad):
            # Densify on mixed accumulation: a dense gradient reaches a
            # parameter that already holds a sparse one (e.g. the entity
            # table used both through a lookup and as a matmul operand).
            current = current.to_dense()
        self.grad = np.add(current, grad, out=np.empty_like(current))

    def zero_grad(self) -> None:
        """Drop any accumulated gradient."""
        self.grad = None

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded tape.

        Parameters
        ----------
        grad:
            Upstream gradient.  Defaults to ones, which for a scalar loss is
            the conventional seed of 1.0.
        """
        # A copy: the seed becomes this node's owned gradient.
        grad = np.ones_like(self.data) if grad is None else np.array(grad, dtype=np.float64)

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(value: "Tensor | float | int | np.ndarray") -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def __add__(self, other: "Tensor | float | int | np.ndarray") -> "Tensor":
        other = self._coerce(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad, self.shape))
            other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: "Tensor | float | int | np.ndarray") -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other: "Tensor | float | int | np.ndarray") -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other: "Tensor | float | int | np.ndarray") -> "Tensor":
        other = self._coerce(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad * other.data, self.shape))
            other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: "Tensor | float | int | np.ndarray") -> "Tensor":
        other = self._coerce(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad / other.data, self.shape))
            other._accumulate(
                _unbroadcast(-grad * self.data / (other.data**2), other.shape)
            )

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other: "Tensor | float | int | np.ndarray") -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("Tensor.__pow__ supports scalar exponents only")
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = self._coerce(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    self._accumulate(np.outer(grad, other.data) if grad.ndim else grad * other.data)
                else:
                    g = grad @ np.swapaxes(other.data, -1, -2)
                    self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                if self.data.ndim == 1:
                    other._accumulate(np.outer(self.data, grad) if grad.ndim else self.data * grad)
                else:
                    g = np.swapaxes(self.data, -1, -2) @ grad
                    other._accumulate(_unbroadcast(g, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.shape[a] for a in axis]))
        else:
            count = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            o = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
                o = np.expand_dims(o, axis=axis)
            mask = (self.data == o).astype(np.float64)
            # Split gradient equally among ties to keep the op well-defined.
            norm = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate(mask * g / norm)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(self.shape))

        return Tensor._make(out_data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        axes_t = tuple(axes) if axes else tuple(reversed(range(self.ndim)))
        out_data = self.data.transpose(axes_t)
        inverse = np.argsort(axes_t)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return Tensor._make(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        if (
            isinstance(index, np.ndarray)
            and index.ndim == 1
            and np.issubdtype(index.dtype, np.integer)
        ):
            # Every 1-D integer-array row lookup (e.g. ConvE's per-entity
            # bias vector) takes the one row-lookup primitive.
            return self.gather_rows(index)
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            # Slices, masks and n-D indices: the general scatter.
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate(full)

        return Tensor._make(out_data, (self,), backward)

    def gather_rows(self, indices: np.ndarray) -> "Tensor":
        """Row lookup with scatter-add backward — the embedding primitive.

        Equivalent to ``self[indices]`` for a 1-D integer index array (which
        ``__getitem__`` routes here) but kept as a named method because it
        is the hottest op in KGE training.  The backward pass sums the
        gradient rows with :func:`~repro.autograd.sparse.row_segment_sum`,
        bit for bit the dense ``np.add.at`` scatter.  When
        :attr:`sparse_grad` is set it emits a deduplicated
        :class:`SparseGrad` of the same per-row sums instead, without the
        ``(num_rows, dim)`` materialisation.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and indices.min() < 0:
            # Resolve numpy's wrap-around ids: scatter keys and sparse
            # row ids must be non-negative.
            if indices.min() < -self.shape[0]:
                raise IndexError(
                    f"index {indices.min()} is out of bounds for axis 0 "
                    f"with size {self.shape[0]}"
                )
            indices = np.where(indices < 0, indices + self.shape[0], indices)
        if self._catch_up is not None:
            # A lazy optimizer has deferred updates on this parameter:
            # settle the rows being read so the forward pass (and hence
            # the gradient) matches the dense path bit for bit.
            self._catch_up(indices)
        out_data = self.data[indices]

        if self.sparse_grad:

            def backward(grad: np.ndarray) -> None:
                self._accumulate(SparseGrad.from_indices(indices, grad, self.shape))

        else:

            def backward(grad: np.ndarray) -> None:
                self._accumulate(row_segment_sum(indices, grad, self.shape[0]))

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def sqrt(self) -> "Tensor":
        return self**0.5

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * np.sign(self.data))

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        out_data = np.maximum(self.data, 0.0)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (self.data > 0.0))

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = _sigmoid(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data**2))

        return Tensor._make(out_data, (self,), backward)

    def softplus(self) -> "Tensor":
        out_data = _softplus(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * _sigmoid(self.data))

        return Tensor._make(out_data, (self,), backward)

    def clamp_min(self, minimum: float) -> "Tensor":
        out_data = np.maximum(self.data, minimum)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (self.data > minimum))

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Norms
    # ------------------------------------------------------------------
    def l2_norm(self, axis: int = -1, eps: float = 1e-12) -> "Tensor":
        """Euclidean norm along ``axis`` (keeps gradient finite at zero)."""
        return ((self * self).sum(axis=axis) + eps).sqrt()


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient splitting."""
    tensors = [Tensor._coerce(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(start, stop)
            tensor._accumulate(grad[tuple(slicer)])

    return Tensor._make(out_data, tensors, backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient splitting."""
    tensors = [Tensor._coerce(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        for i, tensor in enumerate(tensors):
            tensor._accumulate(np.take(grad, i, axis=axis))

    return Tensor._make(out_data, tensors, backward)
