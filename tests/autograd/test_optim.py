"""Optimizer tests: convergence on quadratics and parameter validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import SGD, Adagrad, Adam, Tensor


def _minimise(optimizer_factory, steps: int = 200) -> float:
    """Minimise ||x - target||² and return the final distance."""
    target = np.asarray([1.0, -2.0, 3.0])
    x = Tensor(np.zeros(3), requires_grad=True)
    opt = optimizer_factory([x])
    for _ in range(steps):
        opt.zero_grad()
        diff = x - target
        (diff * diff).sum().backward()
        opt.step()
    return float(np.abs(x.data - target).max())


class TestConvergence:
    def test_sgd(self):
        assert _minimise(lambda p: SGD(p, lr=0.1)) < 1e-6

    def test_sgd_momentum(self):
        # Heavy-ball converges at rate √momentum per step on a quadratic.
        assert _minimise(lambda p: SGD(p, lr=0.05, momentum=0.9), steps=600) < 1e-6

    def test_adagrad(self):
        assert _minimise(lambda p: Adagrad(p, lr=1.0)) < 1e-3

    def test_adam(self):
        assert _minimise(lambda p: Adam(p, lr=0.1), steps=400) < 1e-4

    def test_adam_weight_decay_shrinks_solution(self):
        target = np.asarray([10.0])
        x_plain = Tensor(np.zeros(1), requires_grad=True)
        x_decay = Tensor(np.zeros(1), requires_grad=True)
        plain = Adam([x_plain], lr=0.2)
        decay = Adam([x_decay], lr=0.2, weight_decay=1.0)
        for _ in range(500):
            for x, opt in ((x_plain, plain), (x_decay, decay)):
                opt.zero_grad()
                diff = x - target
                (diff * diff).sum().backward()
                opt.step()
        assert x_decay.data[0] < x_plain.data[0]


class TestValidation:
    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_nonpositive_lr_rejected(self):
        with pytest.raises(ValueError):
            Adam([Tensor([1.0], requires_grad=True)], lr=0.0)

    def test_bad_momentum_rejected(self):
        with pytest.raises(ValueError):
            SGD([Tensor([1.0], requires_grad=True)], lr=0.1, momentum=1.0)

    def test_bad_betas_rejected(self):
        with pytest.raises(ValueError):
            Adam([Tensor([1.0], requires_grad=True)], lr=0.1, betas=(1.0, 0.9))

    def test_step_skips_gradless_params(self):
        x = Tensor([1.0], requires_grad=True)
        opt = Adam([x], lr=0.1)
        opt.step()  # no backward yet: must not raise or move x
        np.testing.assert_array_equal(x.data, [1.0])

    @pytest.mark.parametrize(
        "make",
        [
            lambda p: SGD(p, lr=0.1),
            lambda p: SGD(p, lr=0.1, momentum=0.9),
            lambda p: Adagrad(p, lr=0.1),
        ],
        ids=["sgd", "sgd-momentum", "adagrad"],
    )
    def test_every_optimizer_skips_gradless_params(self, make):
        used = Tensor([1.0], requires_grad=True)
        unused = Tensor([5.0], requires_grad=True)
        opt = make([used, unused])
        (used * used).sum().backward()
        opt.step()
        assert used.data[0] < 1.0
        np.testing.assert_array_equal(unused.data, [5.0])


class TestAdamBiasCorrection:
    def test_first_step_size_is_close_to_lr(self):
        """With bias correction the very first Adam step ≈ lr·sign(grad)."""
        x = Tensor([0.0], requires_grad=True)
        opt = Adam([x], lr=0.1)
        opt.zero_grad()
        (x * 3.0).sum().backward()
        opt.step()
        np.testing.assert_allclose(x.data, [-0.1], atol=1e-6)


class TestFusedAdamBitwise:
    """The fused in-place dense Adam step must reproduce, bit for bit, the
    classic allocating implementation it replaced."""

    @staticmethod
    def _reference_step(
        data: np.ndarray,
        grad: np.ndarray,
        m: np.ndarray,
        v: np.ndarray,
        t: int,
        lr: float,
        beta1: float,
        beta2: float,
        eps: float,
        weight_decay: float,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # Every expression matches the fused kernel's rounding order;
        # note (1.0 - beta1) is computed, not written as a literal —
        # 1.0 - 0.9 is not the float closest to 0.1.
        if weight_decay > 0.0:
            grad = grad + weight_decay * data
        m = beta1 * m + (1.0 - beta1) * grad
        v = beta2 * v + (1.0 - beta2) * (grad * grad)
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        data = data - (lr * m_hat) / (np.sqrt(v_hat) + eps)
        return data, m, v

    @pytest.mark.parametrize("weight_decay", [0.0, 0.02])
    @pytest.mark.parametrize("shape", [(7, 3), (4,), (2, 3, 3)])
    def test_matches_allocating_reference(self, weight_decay, shape):
        rng = np.random.default_rng(11)
        init = rng.standard_normal(shape)
        lr, (beta1, beta2), eps = 0.05, (0.9, 0.999), 1e-8

        param = Tensor(init.copy(), requires_grad=True)
        opt = Adam([param], lr=lr, betas=(beta1, beta2), eps=eps,
                   weight_decay=weight_decay)

        ref = init.copy()
        m = np.zeros(shape)
        v = np.zeros(shape)
        for t in range(1, 10):
            grad = rng.standard_normal(shape) * 10.0 ** rng.integers(-4, 4)
            opt.zero_grad()
            param.grad = grad.copy()
            opt.step()
            ref, m, v = self._reference_step(
                ref, grad, m, v, t, lr, beta1, beta2, eps, weight_decay
            )
            assert np.array_equal(param.data, ref)

    def test_scratch_buffers_are_reused(self):
        param = Tensor(np.zeros((5, 2)), requires_grad=True)
        opt = Adam([param], lr=0.1)
        for _ in range(3):
            opt.zero_grad()
            param.grad = np.ones((5, 2))
            opt.step()
        assert set(opt._scratch) == {0}

    def test_momentum_sgd_replay_vs_dense_sweep(self):
        """Cross-check the SGD momentum lazy replay against an explicit
        per-step dense reference (independent of the dense branch)."""
        rng = np.random.default_rng(5)
        init = rng.standard_normal((6, 2))
        lr, mu = 0.1, 0.9
        batches = [[0, 1], [4], [0], [2, 4]]

        ref = init.copy()
        velocity = np.zeros_like(ref)
        param = Tensor(init.copy(), requires_grad=True)
        param.sparse_grad = True
        opt = SGD([param], lr=lr, momentum=mu)
        for batch in batches:
            idx = np.asarray(batch, dtype=np.int64)
            opt.zero_grad()
            param.gather_rows(idx).sum().backward()
            opt.step()
            grad = np.zeros_like(ref)
            np.add.at(grad, idx, np.ones((idx.shape[0], ref.shape[1])))
            velocity = mu * velocity + grad
            ref = ref - lr * velocity
        opt.flush()
        assert np.array_equal(param.data, ref)
