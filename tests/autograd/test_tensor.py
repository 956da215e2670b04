"""Unit tests for the autodiff tensor: forward values and gradients."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import Tensor, concatenate, is_grad_enabled, no_grad, stack

from ..helpers import check_gradients

RNG = np.random.default_rng(42)


class TestConstruction:
    def test_numpy_exposes_the_data_without_a_copy(self):
        t = Tensor([1.0, 2.0])
        assert t.numpy() is t.data

    def test_from_list(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.data.dtype == np.float64

    def test_from_tensor_unwraps(self):
        inner = Tensor([1.0, 2.0])
        outer = Tensor(inner)
        np.testing.assert_array_equal(outer.data, inner.data)

    def test_requires_grad_flag(self):
        assert Tensor([1.0], requires_grad=True).requires_grad
        assert not Tensor([1.0]).requires_grad

    def test_item_and_len(self):
        assert Tensor(3.5).item() == 3.5
        assert len(Tensor([1.0, 2.0, 3.0])) == 3

    def test_repr_mentions_shape(self):
        assert "shape=(2,)" in repr(Tensor([1.0, 2.0]))

    def test_detach_cuts_tape(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = (x * 2).detach()
        assert not y.requires_grad


class TestArithmeticForward:
    def test_add(self):
        np.testing.assert_array_equal(
            (Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])).data, [4.0, 6.0]
        )

    def test_add_scalar_broadcast(self):
        np.testing.assert_array_equal((Tensor([1.0, 2.0]) + 1).data, [2.0, 3.0])

    def test_radd(self):
        np.testing.assert_array_equal((1 + Tensor([1.0])).data, [2.0])

    def test_sub_and_rsub(self):
        np.testing.assert_array_equal((Tensor([3.0]) - 1).data, [2.0])
        np.testing.assert_array_equal((5 - Tensor([3.0])).data, [2.0])

    def test_mul_div(self):
        np.testing.assert_array_equal((Tensor([2.0]) * 3).data, [6.0])
        np.testing.assert_array_equal((Tensor([6.0]) / 3).data, [2.0])
        np.testing.assert_array_equal((6 / Tensor([3.0])).data, [2.0])

    def test_neg(self):
        np.testing.assert_array_equal((-Tensor([1.0, -2.0])).data, [-1.0, 2.0])

    def test_pow(self):
        np.testing.assert_array_equal((Tensor([2.0, 3.0]) ** 2).data, [4.0, 9.0])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([2.0]) ** Tensor([2.0])

    def test_matmul_2d(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_array_equal((a @ b).data, a.data @ b.data)


class TestGradients:
    def test_add_broadcast_row(self):
        check_gradients(lambda x: x + np.ones((1, 3)), RNG.normal(size=(2, 3)))

    def test_mul_broadcast_scalar(self):
        check_gradients(lambda x: x * 3.5, RNG.normal(size=(4,)))

    def test_mul_elementwise(self):
        other = RNG.normal(size=(3, 2))
        check_gradients(lambda x: x * other, RNG.normal(size=(3, 2)))

    def test_div(self):
        denom = RNG.normal(size=(3,)) + 5.0
        check_gradients(lambda x: x / denom, RNG.normal(size=(3,)))

    def test_div_denominator_grad(self):
        numer = RNG.normal(size=(3,))
        check_gradients(lambda x: numer / x, RNG.normal(size=(3,)) + 4.0)

    def test_pow(self):
        check_gradients(lambda x: x**3, RNG.normal(size=(5,)) + 2.0)

    def test_matmul_left(self):
        w = RNG.normal(size=(3, 4))
        check_gradients(lambda x: x @ w, RNG.normal(size=(2, 3)))

    def test_matmul_right(self):
        a = RNG.normal(size=(2, 3))
        check_gradients(lambda x: Tensor(a) @ x, RNG.normal(size=(3, 4)))

    def test_batched_matmul(self):
        w = RNG.normal(size=(4, 3, 5))
        check_gradients(lambda x: x @ w, RNG.normal(size=(4, 2, 3)))

    def test_matmul_vector_dot(self):
        v = RNG.normal(size=(3,))
        check_gradients(lambda x: x @ v, RNG.normal(size=(3,)))
        check_gradients(lambda x: Tensor(v) @ x, RNG.normal(size=(3,)))

    def test_matmul_matrix_vector(self):
        v = RNG.normal(size=(3,))
        check_gradients(lambda x: x @ v, RNG.normal(size=(2, 3)))
        m = RNG.normal(size=(2, 3))
        check_gradients(lambda x: Tensor(m) @ x, RNG.normal(size=(3,)))

    def test_matmul_vector_matrix(self):
        m = RNG.normal(size=(3, 4))
        check_gradients(lambda x: x @ m, RNG.normal(size=(3,)))
        v = RNG.normal(size=(3,))
        check_gradients(lambda x: Tensor(v) @ x, RNG.normal(size=(3, 4)))

    def test_sum_axis(self):
        check_gradients(lambda x: x.sum(axis=1), RNG.normal(size=(3, 4)))

    def test_sum_keepdims(self):
        check_gradients(
            lambda x: x * x.sum(axis=1, keepdims=True), RNG.normal(size=(3, 4))
        )

    def test_mean(self):
        check_gradients(lambda x: x.mean(axis=0), RNG.normal(size=(3, 4)))

    def test_mean_tuple_axis(self):
        check_gradients(
            lambda x: x.mean(axis=(0, 2), keepdims=True), RNG.normal(size=(2, 3, 4))
        )

    def test_max(self):
        # Avoid exact ties for a well-defined numeric gradient.
        data = np.arange(12, dtype=np.float64).reshape(3, 4)
        check_gradients(lambda x: x.max(axis=1), data)

    def test_reshape(self):
        check_gradients(lambda x: (x.reshape(6) ** 2), RNG.normal(size=(2, 3)))

    def test_transpose(self):
        w = RNG.normal(size=(2, 3))
        check_gradients(lambda x: x.T * w.T, RNG.normal(size=(2, 3)))

    def test_getitem_slice(self):
        check_gradients(lambda x: x[1:, :2] * 2.0, RNG.normal(size=(3, 4)))

    def test_getitem_fancy_accumulates(self):
        # A repeated index must accumulate gradient.
        x = Tensor(np.ones(3), requires_grad=True)
        y = x[np.asarray([0, 0, 1])]
        y.sum().backward()
        np.testing.assert_array_equal(x.grad, [2.0, 1.0, 0.0])

    def test_gather_rows(self):
        idx = np.asarray([0, 2, 2, 1])
        check_gradients(lambda x: x.gather_rows(idx) * 1.5, RNG.normal(size=(3, 4)))

    @pytest.mark.parametrize("shape", [(6,), (6, 3)])
    def test_int_array_getitem_matches_gather_rows(self, shape):
        # A 1-D integer index on a non-sparse tensor takes the same
        # row-lookup path, so both give the same value and gradient bits.
        rng = np.random.default_rng(5)
        data = rng.normal(size=shape)
        idx = rng.integers(0, 6, size=20)
        upstream = rng.normal(size=(20,) + shape[1:]) * 10.0 ** rng.integers(
            -8, 8, size=(20,) + (1,) * (len(shape) - 1)
        )
        a = Tensor(data, requires_grad=True)
        b = Tensor(data, requires_grad=True)
        out_a, out_b = a[idx], b.gather_rows(idx)
        np.testing.assert_array_equal(out_a.data, out_b.data)
        out_a.backward(upstream)
        out_b.backward(upstream)
        assert np.array_equal(a.grad, b.grad)
        assert np.array_equal(np.signbit(a.grad), np.signbit(b.grad))

    def test_negative_int_array_getitem_wraps_like_numpy(self):
        x = Tensor(np.arange(4.0), requires_grad=True)
        y = x[np.asarray([-1, 0, -1, -4])]
        np.testing.assert_array_equal(y.data, [3.0, 0.0, 3.0, 0.0])
        y.sum().backward()
        np.testing.assert_array_equal(x.grad, [2.0, 0.0, 0.0, 2.0])

    @pytest.mark.parametrize("bad", [-5, 4])
    def test_out_of_range_int_array_getitem_raises_like_numpy(self, bad):
        x = Tensor(np.arange(4.0), requires_grad=True)
        with pytest.raises(IndexError):
            x[np.asarray([0, bad])]

    def test_sqrt_abs(self):
        check_gradients(lambda x: x.sqrt(), RNG.normal(size=(4,)) ** 2 + 1.0)
        check_gradients(lambda x: x.abs(), RNG.normal(size=(4,)) + 2.0)

    def test_relu(self):
        data = RNG.normal(size=(10,))
        data[np.abs(data) < 1e-3] = 0.5  # keep away from the kink
        check_gradients(lambda x: x.relu(), data)

    def test_sigmoid_tanh_softplus(self):
        data = RNG.normal(size=(6,))
        check_gradients(lambda x: x.sigmoid(), data)
        check_gradients(lambda x: x.tanh(), data)
        check_gradients(lambda x: x.softplus(), data)

    def test_clamp_min(self):
        data = np.asarray([-2.0, -0.5, 0.5, 2.0])
        check_gradients(lambda x: x.clamp_min(0.0), data)

    def test_l2_norm(self):
        check_gradients(lambda x: x.l2_norm(axis=1), RNG.normal(size=(3, 4)) + 1.0)

    def test_concatenate(self):
        other = RNG.normal(size=(2, 3))
        check_gradients(
            lambda x: concatenate([x, Tensor(other)], axis=0) * 2.0,
            RNG.normal(size=(2, 3)),
        )

    def test_stack(self):
        other = RNG.normal(size=(3,))
        check_gradients(
            lambda x: stack([x, Tensor(other)], axis=0).sum(axis=0),
            RNG.normal(size=(3,)),
        )

    def test_gradient_accumulates_across_uses(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * 3 + x * 4  # dy/dx = 7
        y.backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_diamond_graph(self):
        x = Tensor([1.0], requires_grad=True)
        a = x * 2
        b = x * 3
        (a * b).backward()  # d(6x²)/dx = 12x
        np.testing.assert_allclose(x.grad, [12.0])

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2).backward()
        x.zero_grad()
        assert x.grad is None


class TestNoGrad:
    def test_context_disables_tape(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            y = x * 2
        assert is_grad_enabled()
        assert not y.requires_grad
        assert y._backward is None

    def test_nested_restores(self):
        with no_grad():
            with no_grad():
                pass
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_new_tensors_ignore_requires_grad(self):
        with no_grad():
            t = Tensor([1.0], requires_grad=True)
        assert not t.requires_grad


class TestBackwardSeed:
    def test_custom_upstream_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 3
        y.backward(np.asarray([1.0, 10.0]))
        np.testing.assert_allclose(x.grad, [3.0, 30.0])

    def test_scalar_default_seed(self):
        x = Tensor(4.0, requires_grad=True)
        (x * x).backward()
        np.testing.assert_allclose(x.grad, 8.0)


class TestGradientOwnership:
    """``_accumulate`` keeps the first gradient and never writes a stored one."""

    def test_second_contribution_leaves_shared_sibling_alone(self):
        a = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        g = RNG.normal(size=(3, 4))
        h = RNG.normal(size=(3, 4))
        (a + b).backward(g)
        a._accumulate(h)
        np.testing.assert_array_equal(b.grad, g)
        np.testing.assert_array_equal(a.grad, g + h)

    def test_tape_contribution_leaves_shared_sibling_alone(self):
        a = Tensor(RNG.normal(size=(5,)), requires_grad=True)
        b = Tensor(RNG.normal(size=(5,)), requires_grad=True)
        c = a + b
        g = RNG.normal(size=(5,))
        (c * 1.0 + a * 3.0).backward(g)
        np.testing.assert_array_equal(b.grad, g)
        np.testing.assert_array_equal(a.grad, g + g * 3.0)
        np.testing.assert_array_equal(c.grad, g)

    def test_self_addition_doubles(self):
        x = Tensor(RNG.normal(size=(4, 2)), requires_grad=True)
        g = RNG.normal(size=(4, 2))
        y = x + x
        y.backward(g)
        np.testing.assert_array_equal(x.grad, 2.0 * g)
        np.testing.assert_array_equal(y.grad, g)

    def test_seed_is_copied(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        seed = np.asarray([1.0, 1.0])
        y = x * 1.0
        y.backward(seed)
        y.grad[0] = 5.0
        np.testing.assert_array_equal(seed, [1.0, 1.0])

    def test_sparse_then_dense_densifies(self):
        table = RNG.normal(size=(6, 3))
        p = Tensor(table.copy(), requires_grad=True)
        p.sparse_grad = True
        idx = np.asarray([1, 4, 1])
        (p.gather_rows(idx).sum() + (p * 2.0).sum()).backward()
        expected = np.full((6, 3), 2.0)
        np.add.at(expected, idx, 1.0)
        np.testing.assert_array_equal(p.grad, expected)

    def test_dense_then_sparse_adds_into_a_copy(self):
        p = Tensor(RNG.normal(size=(6, 3)), requires_grad=True)
        p.sparse_grad = True
        q = Tensor(RNG.normal(size=(6, 3)), requires_grad=True)
        g = RNG.normal(size=(6, 3))
        (p + q).backward(g)  # p.grad and q.grad share one array
        p.gather_rows(np.asarray([0, 2])).backward(np.ones((2, 3)))
        np.testing.assert_array_equal(q.grad, g)
        expected = g.copy()
        expected[[0, 2]] += 1.0
        np.testing.assert_array_equal(p.grad, expected)

    @pytest.mark.parametrize(
        "view",
        [lambda a: a.T, lambda a: a[:, ::2], lambda a: np.asfortranarray(a)],
        ids=["transposed", "strided", "fortran"],
    )
    def test_strided_data_keeps_zeros_like_layout(self, view):
        x = Tensor(view(RNG.normal(size=(6, 8))), requires_grad=True)
        assert not x.data.flags.c_contiguous
        g = np.ascontiguousarray(RNG.normal(size=x.shape))
        (x * 1.0).backward(g)
        assert x.grad.strides == np.zeros_like(x.data).strides
        np.testing.assert_array_equal(x.grad, g)
