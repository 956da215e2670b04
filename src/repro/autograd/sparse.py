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

* deduplication uses ``np.unique(..., return_inverse=True)`` followed by
  an ``np.add.at`` segment-sum, which adds duplicate contributions in
  exactly the same element order as the dense ``np.add.at(full, indices,
  grad)`` scatter it stands in for;
* merging two sparse gradients (a parameter gathered twice in one
  forward pass) adds the operands in arrival order, matching the dense
  tape's ``grad += contribution`` accumulation order;
* adding into an existing dense gradient touches only the present rows —
  the dense path would add exact zeros everywhere else, which is a
  bitwise no-op.

The only tolerated divergence is the sign of floating-point zeros
(``-0.0 + 0.0`` is ``+0.0`` on the dense path), which ``==`` and
``np.array_equal`` cannot observe.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SparseGrad"]


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
        Duplicate rows are summed in occurrence order — the exact order
        ``np.add.at`` would use on a dense target — so the result is
        bitwise equal to the dense scatter, row for row.

        ``np.add.at`` loops element by element, so the hot path assigns
        each row's *first* occurrence with a vectorised fancy index and
        scatter-adds only the duplicate occurrences.  Per row that
        computes ``(v₁ + v₂) + v₃`` where the dense scatter computes
        ``((0 + v₁) + v₂) + v₃`` — identical bits apart from the sign of
        a ``-0.0`` first occurrence, the divergence this module already
        tolerates.
        """
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        rows, inverse, counts = np.unique(
            indices, return_inverse=True, return_counts=True
        )
        compact = np.empty((rows.shape[0],) + tuple(shape[1:]), dtype=np.float64)
        if rows.shape[0] == indices.shape[0]:
            compact[inverse] = values
            return cls(rows, compact, shape)
        # Stable sort groups occurrences by row while keeping each group
        # in occurrence order; the group heads are the first occurrences.
        order = np.argsort(inverse, kind="stable")
        heads = np.zeros(indices.shape[0], dtype=bool)
        heads[np.cumsum(counts[:-1])] = True
        heads[0] = True
        first = order[heads]
        compact[inverse[first]] = values[first]
        rest = order[~heads]
        np.add.at(compact, inverse[rest], values[rest])
        return cls(rows, compact, shape)

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
