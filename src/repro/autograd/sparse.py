"""Row-sparse gradients for embedding parameters.

A minibatch of KGE triples references a few hundred embedding rows out of
a vocabulary of thousands, yet the classic tape implementation
scatter-adds every batch gradient into a dense ``(num_rows, dim)`` array
and the optimizers then sweep the full table.  :class:`SparseGrad` is the
compact alternative: the deduplicated row ids touched by the batch plus
one accumulated value row per id.

Bit-identity contract
---------------------
Everything here is constructed so that a sparse training run produces
**the same floating-point bits** as the dense run it replaces:

* every row scatter of the tape — the deduplicated rows of
  :meth:`SparseGrad.from_indices` and the dense ``gather_rows``
  backward alike — is :func:`row_segment_sum`: one ``np.bincount`` over
  flattened ``(row, column)`` keys, which starts each element at zero
  and adds its contributions in occurrence order.  That is exactly the
  order of ``np.add.at(np.zeros(...), indices, grad)``, so both paths
  carry the same bits, zero signs included;
* merging two sparse gradients (a parameter gathered twice in one
  forward pass) adds the operands in arrival order, matching the dense
  tape's ``grad += contribution`` accumulation order;
* adding into an existing dense gradient touches only the present rows —
  the dense path would add exact zeros everywhere else, which is a
  bitwise no-op.

The only tolerated divergence is the sign of floating-point zeros in
those last two steps (``-0.0 + 0.0`` is ``+0.0`` on the dense path),
which ``==`` and ``np.array_equal`` cannot observe.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["SparseGrad", "row_segment_sum"]


def row_segment_sum(
    rows: np.ndarray, values: np.ndarray, num_rows: int
) -> np.ndarray:
    """Sum ``values[i]`` into row ``rows[i]`` of a ``num_rows``-row zero array.

    The exact stand-in for ``np.add.at(np.zeros((num_rows,) + tail),
    rows, values)``.  Each ``(row, column)`` target becomes one flat key
    ``row * width + column``, and ``np.bincount`` adds the weights of
    every key from zero in occurrence order — the dense scatter's order,
    so the bits match, while the loop runs in C instead of numpy's
    element-by-element ``ufunc.at``.  ``rows`` must be non-negative.
    """
    tail = values.shape[1:]
    width = math.prod(tail)
    flat = (rows[:, None] * width + np.arange(width)).ravel()
    summed = np.bincount(
        flat, weights=values.reshape(-1), minlength=num_rows * width
    )
    # An empty ``flat`` makes numpy return int64 zeros whatever the weights.
    return summed.astype(np.float64, copy=False).reshape((num_rows,) + tail)


class SparseGrad:
    """A row-sparse gradient: ``k`` unique rows of a ``shape`` array.

    Parameters
    ----------
    rows:
        Sorted, deduplicated ``int64`` row indices, shape ``(k,)``.
    values:
        Accumulated gradient rows, shape ``(k,) + shape[1:]``.
    shape:
        The dense shape this gradient is sparse over (first axis is the
        row axis).

    Instances are created by :meth:`from_indices` (the tape's scatter
    replacement) and combined by the accumulation helpers below; the
    constructor trusts its arguments and is not a public entry point.
    """

    __slots__ = ("rows", "values", "shape")

    def __init__(self, rows: np.ndarray, values: np.ndarray, shape: tuple[int, ...]) -> None:
        self.rows = rows
        self.values = values
        self.shape = tuple(shape)

    @classmethod
    def from_indices(
        cls, indices: np.ndarray, values: np.ndarray, shape: tuple[int, ...]
    ) -> "SparseGrad":
        """Build from possibly-duplicated ``indices`` with segment-sum dedup.

        ``indices`` is the 1-D row-id array of a ``gather_rows`` call and
        ``values`` the upstream gradient (one leading batch axis).
        ``np.unique`` maps every occurrence to its compact row and
        :func:`row_segment_sum` sums each row from zero in occurrence
        order, ``((0 + v₁) + v₂) + v₃`` — the dense ``np.add.at`` scatter's
        own order — so the result equals the dense scatter bit for bit,
        row for row, including the sign of zeros.
        """
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        rows, inverse = np.unique(indices, return_inverse=True)
        return cls(rows, row_segment_sum(inverse, values, rows.shape[0]), shape)

    @property
    def nnz_rows(self) -> int:
        """Number of distinct rows carrying gradient."""
        return int(self.rows.shape[0])

    def to_dense(self) -> np.ndarray:
        """Materialise the full dense gradient array."""
        out = np.zeros(self.shape, dtype=np.float64)
        out[self.rows] = self.values
        return out

    def add_into_dense(self, dense: np.ndarray) -> None:
        """Accumulate into an existing dense gradient, in place.

        Equivalent to ``dense += self.to_dense()`` without the
        materialisation: absent rows would contribute exact zeros.
        """
        dense[self.rows] += self.values

    def merged_with(self, other: "SparseGrad") -> "SparseGrad":
        """Return the sum of two sparse gradients over the same shape.

        ``self`` is added first, then ``other`` — the same order the
        dense tape would apply the two contributions.
        """
        if other.shape != self.shape:
            raise ValueError(
                f"cannot merge SparseGrad of shape {other.shape} into {self.shape}"
            )
        rows = np.unique(np.concatenate([self.rows, other.rows]))
        out = np.zeros((rows.shape[0],) + self.shape[1:], dtype=np.float64)
        out[np.searchsorted(rows, self.rows)] += self.values
        out[np.searchsorted(rows, other.rows)] += other.values
        return SparseGrad(rows, out, self.shape)

    def __repr__(self) -> str:
        return (
            f"SparseGrad(rows={self.nnz_rows}/{self.shape[0]}, "
            f"shape={self.shape})"
        )
