"""Tests for the NN module system: parameters, layers, state dicts."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import (
    BatchNorm,
    Conv2d,
    Dropout,
    Embedding,
    Linear,
    Module,
    Parameter,
    Tensor,
)

RNG = np.random.default_rng(5)


class _Net(Module):
    def __init__(self):
        super().__init__()
        self.linear1 = Linear(4, 3, np.random.default_rng(0))
        self.linear2 = Linear(3, 2, np.random.default_rng(1))
        self.drop = Dropout(0.5, np.random.default_rng(2))

    def __call__(self, x):
        return self.linear2(self.drop(self.linear1(x)))


class TestModule:
    def test_modules_held_in_lists_are_discovered(self):
        class Stack(Module):
            def __init__(self):
                super().__init__()
                self.layers = [Linear(2, 2, np.random.default_rng(i)) for i in range(3)]
                self.head = (Linear(2, 1, np.random.default_rng(9)), "not a module")

        net = Stack()
        assert len(list(net.parameters())) == 8  # 4 layers × (weight, bias)
        assert len(list(net.modules())) == 5
        net.eval()
        assert not any(module.training for module in net.modules())

    def test_parameter_discovery_is_recursive(self):
        net = _Net()
        params = list(net.parameters())
        # two weights + two biases
        assert len(params) == 4
        assert all(isinstance(p, Parameter) for p in params)

    def test_parameters_are_unique(self):
        net = _Net()
        net.alias = net.linear1  # shared submodule must not duplicate params
        ids = [id(p) for p in net.parameters()]
        assert len(ids) == len(set(ids))

    def test_num_parameters(self):
        net = _Net()
        assert net.num_parameters() == 4 * 3 + 3 + 3 * 2 + 2

    def test_train_eval_propagates(self):
        net = _Net()
        net.eval()
        assert not net.drop.training
        net.train()
        assert net.drop.training

    def test_zero_grad_clears_all(self):
        net = _Net()
        out = net(Tensor(RNG.normal(size=(2, 4))))
        out.sum().backward()
        assert any(p.grad is not None for p in net.parameters())
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())

    def test_state_dict_roundtrip(self):
        net = _Net()
        state = net.state_dict()
        other = _Net()
        other.load_state_dict(state)
        for key, value in other.state_dict().items():
            np.testing.assert_array_equal(value, state[key])

    def test_state_dict_returns_copies(self):
        net = _Net()
        state = net.state_dict()
        state["linear1.weight"][...] = 0.0
        assert not np.allclose(net.linear1.weight.data, 0.0)

    def test_load_state_dict_rejects_missing_keys(self):
        net = _Net()
        state = net.state_dict()
        del state["linear1.weight"]
        with pytest.raises(KeyError):
            net.load_state_dict(state)

    def test_load_state_dict_rejects_shape_mismatch(self):
        net = _Net()
        state = net.state_dict()
        state["linear1.weight"] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            net.load_state_dict(state)


class TestBuffers:
    def test_batchnorm_buffers_in_state_dict(self):
        bn = BatchNorm(3)
        state = bn.state_dict()
        assert "running_mean" in state and "running_var" in state

    def test_buffers_roundtrip(self):
        bn = BatchNorm(2, momentum=1.0)
        bn(Tensor(np.full((4, 2), 7.0)))  # pushes running stats
        state = bn.state_dict()
        fresh = BatchNorm(2)
        fresh.load_state_dict(state)
        np.testing.assert_array_equal(fresh.running_mean, bn.running_mean)
        np.testing.assert_array_equal(fresh.running_var, bn.running_var)

    def test_buffer_shape_mismatch_rejected(self):
        bn = BatchNorm(2)
        state = bn.state_dict()
        state["running_mean"] = np.zeros(5)
        with pytest.raises(ValueError, match="buffer"):
            BatchNorm(2).load_state_dict(state)

    def test_nested_module_buffers_prefixed(self):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.norm = BatchNorm(2)

        state = Net().state_dict()
        assert "norm.running_mean" in state

    def test_loaded_buffers_are_copies(self):
        bn = BatchNorm(2)
        state = bn.state_dict()
        fresh = BatchNorm(2)
        fresh.load_state_dict(state)
        state["running_mean"][...] = 99.0
        assert not np.allclose(fresh.running_mean, 99.0)


class TestEmbedding:
    def test_lookup_shape(self):
        emb = Embedding(10, 4, RNG)
        out = emb(np.asarray([1, 5, 5]))
        assert out.shape == (3, 4)

    def test_lookup_matches_weight_rows(self):
        emb = Embedding(10, 4, RNG)
        out = emb(np.asarray([3]))
        np.testing.assert_array_equal(out.data[0], emb.weight.data[3])

    def test_gradient_scatters(self):
        emb = Embedding(5, 2, np.random.default_rng(0))
        out = emb(np.asarray([1, 1, 3]))
        out.sum().backward()
        np.testing.assert_array_equal(emb.weight.grad[1], [2.0, 2.0])
        np.testing.assert_array_equal(emb.weight.grad[3], [1.0, 1.0])
        np.testing.assert_array_equal(emb.weight.grad[0], [0.0, 0.0])

    def test_normalize_rows(self):
        emb = Embedding(6, 3, RNG)
        emb.normalize_rows_()
        norms = np.linalg.norm(emb.weight.data, axis=1)
        np.testing.assert_allclose(norms, 1.0)

    def test_init_schemes(self):
        for init in ("xavier_uniform", "xavier_normal", "normal"):
            Embedding(4, 4, np.random.default_rng(0), init=init)
        with pytest.raises(ValueError):
            Embedding(4, 4, RNG, init="nope")

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError):
            Embedding(0, 4, RNG)


class TestLinear:
    def test_affine_math(self):
        layer = Linear(3, 2, np.random.default_rng(0))
        x = RNG.normal(size=(4, 3))
        out = layer(Tensor(x))
        expected = x @ layer.weight.data.T + layer.bias.data
        np.testing.assert_allclose(out.data, expected)

    def test_no_bias(self):
        layer = Linear(3, 2, np.random.default_rng(0), bias=False)
        assert layer.bias is None
        assert len(list(layer.parameters())) == 1


class TestConv2dModule:
    def test_output_shape(self):
        conv = Conv2d(1, 8, 3, np.random.default_rng(0))
        out = conv(Tensor(np.zeros((2, 1, 6, 6))))
        assert out.shape == (2, 8, 4, 4)


class TestBatchNorm:
    def test_training_normalises_batch(self):
        bn = BatchNorm(3)
        x = RNG.normal(loc=5.0, scale=2.0, size=(64, 3))
        out = bn(Tensor(x))
        np.testing.assert_allclose(out.data.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.data.std(axis=0), 1.0, atol=1e-2)

    def test_4d_normalises_per_channel(self):
        bn = BatchNorm(2)
        x = RNG.normal(loc=3.0, size=(8, 2, 4, 4))
        out = bn(Tensor(x))
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)

    def test_running_stats_update(self):
        bn = BatchNorm(2, momentum=0.5)
        x = np.ones((4, 2)) * 10.0
        bn(Tensor(x))
        np.testing.assert_allclose(bn.running_mean, [5.0, 5.0])

    def test_eval_uses_running_stats(self):
        bn = BatchNorm(1, momentum=1.0)
        bn(Tensor(np.full((8, 1), 4.0)))  # running mean -> 4, var -> 0
        bn.eval()
        out = bn(Tensor(np.full((2, 1), 4.0)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-3)

    def test_rejects_3d_input(self):
        with pytest.raises(ValueError):
            BatchNorm(2)(Tensor(np.zeros((2, 2, 2))))

    def test_gradients_flow_to_gamma_beta(self):
        bn = BatchNorm(3)
        out = bn(Tensor(RNG.normal(size=(16, 3)), requires_grad=True))
        out.sum().backward()
        assert bn.gamma.grad is not None
        assert bn.beta.grad is not None


class TestDropoutModule:
    def test_identity_in_eval(self):
        drop = Dropout(0.9, np.random.default_rng(0))
        drop.eval()
        x = RNG.normal(size=(4,))
        np.testing.assert_array_equal(drop(Tensor(x)).data, x)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            Dropout(-0.1, RNG)
