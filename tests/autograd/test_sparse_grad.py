"""Row-sparse gradient machinery: SparseGrad, tape emission, lazy optimizers.

The fast path's whole value proposition is *bitwise* equality with the
dense path it replaces, so almost every assertion here is
``np.array_equal`` (exact), not ``allclose``.  The lazy-optimizer tests
drive a quadratic loss through ``gather_rows`` so the gradient depends on
the current parameter values — which is exactly what forces the
forward-pass catch-up hook to fire (a stale row would produce a stale
gradient, not just a stale parameter).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import SGD, Adagrad, Adam, SparseGrad, Tensor

# ----------------------------------------------------------------------
# SparseGrad container
# ----------------------------------------------------------------------


class TestSparseGrad:
    def test_from_indices_dedups_in_occurrence_order(self):
        indices = np.array([3, 1, 3, 0, 1, 3], dtype=np.int64)
        rng = np.random.default_rng(0)
        values = rng.standard_normal((6, 4))
        sparse = SparseGrad.from_indices(indices, values, (5, 4))

        np.testing.assert_array_equal(sparse.rows, [0, 1, 3])
        dense = np.zeros((5, 4))
        np.add.at(dense, indices, values)
        np.testing.assert_array_equal(sparse.to_dense(), dense)

    def test_from_indices_matches_dense_scatter_bitwise(self):
        # Many duplicates of values that do NOT sum associatively: the
        # segment-sum must add them in the same order np.add.at would.
        rng = np.random.default_rng(7)
        indices = rng.integers(0, 8, size=200).astype(np.int64)
        values = rng.standard_normal((200, 3)) * 10.0 ** rng.integers(
            -8, 8, size=(200, 1)
        )
        sparse = SparseGrad.from_indices(indices, values, (8, 3))
        dense = np.zeros((8, 3))
        np.add.at(dense, indices, values)
        assert np.array_equal(sparse.to_dense(), dense)

    def test_add_into_dense_touches_only_present_rows(self):
        sparse = SparseGrad.from_indices(
            np.array([1, 4]), np.array([[1.0], [2.0]]), (6, 1)
        )
        dense = np.full((6, 1), 0.5)
        sparse.add_into_dense(dense)
        expected = np.full((6, 1), 0.5)
        expected[1] += 1.0
        expected[4] += 2.0
        np.testing.assert_array_equal(dense, expected)

    def test_merged_with_adds_self_then_other(self):
        a = SparseGrad.from_indices(np.array([0, 2]), np.array([[1.0], [2.0]]), (4, 1))
        b = SparseGrad.from_indices(np.array([2, 3]), np.array([[4.0], [8.0]]), (4, 1))
        merged = a.merged_with(b)
        np.testing.assert_array_equal(merged.rows, [0, 2, 3])
        np.testing.assert_array_equal(merged.to_dense(), a.to_dense() + b.to_dense())

    def test_merged_with_rejects_shape_mismatch(self):
        a = SparseGrad.from_indices(np.array([0]), np.array([[1.0]]), (4, 1))
        b = SparseGrad.from_indices(np.array([0]), np.array([[1.0]]), (5, 1))
        with pytest.raises(ValueError, match="shape"):
            a.merged_with(b)

    def test_nnz_rows_and_repr(self):
        sparse = SparseGrad.from_indices(
            np.array([5, 5, 2]), np.ones((3, 2)), (9, 2)
        )
        assert sparse.nnz_rows == 2
        assert repr(sparse) == "SparseGrad(rows=2/9, shape=(9, 2))"


# ----------------------------------------------------------------------
# Tape emission and accumulation
# ----------------------------------------------------------------------


class TestTensorSparseAccumulation:
    def test_gather_rows_is_dense_by_default(self):
        param = Tensor(np.ones((4, 2)), requires_grad=True)
        param.gather_rows(np.array([1, 1, 3])).sum().backward()
        assert isinstance(param.grad, np.ndarray)

    def test_gather_rows_emits_sparse_when_flagged(self):
        param = Tensor(np.ones((4, 2)), requires_grad=True)
        param.sparse_grad = True
        param.gather_rows(np.array([1, 1, 3])).sum().backward()
        assert isinstance(param.grad, SparseGrad)
        expected = np.zeros((4, 2))
        expected[1] = 2.0
        expected[3] = 1.0
        np.testing.assert_array_equal(param.grad.to_dense(), expected)

    def test_getitem_routes_int_array_through_sparse(self):
        param = Tensor(np.ones(6), requires_grad=True)
        param.sparse_grad = True
        param[np.array([0, 5, 5])].sum().backward()
        assert isinstance(param.grad, SparseGrad)
        np.testing.assert_array_equal(param.grad.rows, [0, 5])

    def test_two_gathers_merge_sparsely(self):
        param = Tensor(np.ones((5, 2)), requires_grad=True)
        param.sparse_grad = True
        a = param.gather_rows(np.array([0, 1]))
        b = param.gather_rows(np.array([1, 4]))
        (a.sum() + b.sum()).backward()
        assert isinstance(param.grad, SparseGrad)
        np.testing.assert_array_equal(param.grad.rows, [0, 1, 4])
        expected = np.zeros((5, 2))
        expected[[0, 4]] = 1.0
        expected[1] = 2.0
        np.testing.assert_array_equal(param.grad.to_dense(), expected)

    def test_mixed_accumulation_densifies(self):
        # The same parameter used through a lookup AND as a plain dense
        # operand: the sparse contribution must densify and both must land.
        param = Tensor(np.ones((4, 2)), requires_grad=True)
        param.sparse_grad = True
        gathered = param.gather_rows(np.array([1]))
        loss = gathered.sum() + (param * 2.0).sum()
        loss.backward()
        assert isinstance(param.grad, np.ndarray)
        expected = np.full((4, 2), 2.0)
        expected[1] += 1.0
        np.testing.assert_array_equal(param.grad, expected)


# ----------------------------------------------------------------------
# Lazy optimizer catch-up (SGD momentum, Adam)
# ----------------------------------------------------------------------

_N, _DIM = 12, 3
#: Scripted batches: repeats, gaps of different lengths, a never-again row
#: (3 after batch 1), and rows first touched late (11, 4).
_BATCHES = [[0, 1], [2, 2, 3], [0, 5], [7], [1, 2], [0, 7, 11], [4], [4, 5]]


def _init_param() -> np.ndarray:
    return np.random.default_rng(42).standard_normal((_N, _DIM))


def _run(
    make_opt,
    sparse: bool,
    batches=_BATCHES,
    flush_every: int | None = None,
    final_flush: bool = True,
) -> np.ndarray:
    """Train a single embedding table on a quadratic loss; return its data."""
    param = Tensor(_init_param(), requires_grad=True)
    param.sparse_grad = sparse
    optimizer = make_opt([param])
    for step, batch in enumerate(batches):
        optimizer.zero_grad()
        rows = param.gather_rows(np.asarray(batch, dtype=np.int64))
        ((rows * rows).sum() * 0.5).backward()
        optimizer.step()
        if flush_every is not None and (step + 1) % flush_every == 0:
            optimizer.flush()
    if final_flush:
        optimizer.flush()
    return param.data


_OPTIMIZERS = {
    "sgd": lambda params: SGD(params, lr=0.1),
    "sgd-momentum": lambda params: SGD(params, lr=0.1, momentum=0.9),
    "adagrad": lambda params: Adagrad(params, lr=0.1),
    "adam": lambda params: Adam(params, lr=0.05),
    "adam-wd": lambda params: Adam(params, lr=0.05, weight_decay=0.02),
}


class TestLazyCatchUp:
    @pytest.mark.parametrize("name", sorted(_OPTIMIZERS))
    def test_sparse_matches_dense_bitwise(self, name):
        make_opt = _OPTIMIZERS[name]
        dense = _run(make_opt, sparse=False)
        sparse = _run(make_opt, sparse=True)
        assert np.array_equal(dense, sparse)

    @pytest.mark.parametrize("name", ["sgd-momentum", "adam", "adam-wd"])
    @pytest.mark.parametrize("flush_every", [1, 3])
    def test_intermediate_flushes_do_not_change_the_result(self, name, flush_every):
        make_opt = _OPTIMIZERS[name]
        baseline = _run(make_opt, sparse=True)
        flushed = _run(make_opt, sparse=True, flush_every=flush_every)
        assert np.array_equal(baseline, flushed)

    def test_flush_is_idempotent(self):
        param = Tensor(_init_param(), requires_grad=True)
        param.sparse_grad = True
        optimizer = Adam([param], lr=0.05)
        for batch in _BATCHES:
            optimizer.zero_grad()
            rows = param.gather_rows(np.asarray(batch, dtype=np.int64))
            (rows * rows).sum().backward()
            optimizer.step()
        optimizer.flush()
        settled = param.data.copy()
        optimizer.flush()
        assert np.array_equal(param.data, settled)

    def test_unflushed_lazy_rows_are_stale_until_flush(self):
        # Row 3 is touched once (step 1) then never again: without a
        # flush the sparse table must differ from the dense one there,
        # and flush() must close exactly that gap.
        make_opt = _OPTIMIZERS["adam"]
        dense = _run(make_opt, sparse=False)

        param = Tensor(_init_param(), requires_grad=True)
        param.sparse_grad = True
        optimizer = make_opt([param])
        for batch in _BATCHES:
            optimizer.zero_grad()
            rows = param.gather_rows(np.asarray(batch, dtype=np.int64))
            ((rows * rows).sum() * 0.5).backward()
            optimizer.step()
        assert not np.array_equal(param.data[3], dense[3])
        optimizer.flush()
        assert np.array_equal(param.data, dense)

    def test_dense_gradient_on_lazily_tracked_parameter(self):
        # After the lazy path engages, feed a dense gradient: the
        # optimizer must settle every stale row before applying it.  The
        # dense step's loss is linear in the parameter so its gradient
        # does not depend on the (deliberately unflushed) forward read —
        # a value-dependent dense read would require a flush first, which
        # is exactly the contract the training loop enforces.
        weights = np.random.default_rng(9).standard_normal((_N, _DIM))

        def run(sparse: bool) -> np.ndarray:
            param = Tensor(_init_param(), requires_grad=True)
            param.sparse_grad = sparse
            optimizer = Adam([param], lr=0.05)
            for step, batch in enumerate(_BATCHES):
                optimizer.zero_grad()
                if step == 4:
                    (param * weights).sum().backward()  # dense step
                else:
                    rows = param.gather_rows(np.asarray(batch, dtype=np.int64))
                    (rows * rows).sum().backward()
                optimizer.step()
            optimizer.flush()
            return param.data

        assert np.array_equal(run(False), run(True))
