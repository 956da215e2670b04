"""Dense vs row-sparse training must produce bit-identical models.

The sparse fast path is an optimisation, not an approximation: for every
model × optimizer combination, under both negative-sampling losses,
training with ``sparse_grads="on"`` must leave *every* parameter bitwise
equal to the ``"off"`` run — including with periodic evaluation, and the
kvsall regime where forcing the flag only exercises the densify
round-trip.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.kge import TrainConfig, train_model
from repro.kge.base import create_model

MODELS = ["transe", "distmult", "complex", "rescal", "hole", "conve"]

OPTIMIZERS = {
    "sgd": {"optimizer": "sgd"},
    "sgd-momentum": {"optimizer": "sgd", "momentum": 0.9},
    "adagrad": {"optimizer": "adagrad"},
    "adam": {"optimizer": "adam"},
}

#: Optimizers that defer row updates (and so exercise lazy catch-up).
LAZY = ["sgd-momentum", "adam"]


def _config(**overrides) -> TrainConfig:
    base = {
        "job": "negative_sampling",
        "loss": "margin",
        "epochs": 2,
        "batch_size": 64,
        "lr": 0.05,
        "num_negatives": 4,
        "seed": 3,
    }
    base.update(overrides)
    return TrainConfig(**base)


def _train(graph, model_name, sparse, **overrides):
    model = create_model(
        model_name,
        num_entities=graph.num_entities,
        num_relations=graph.num_relations,
        dim=8,
        seed=1,
    )
    config = _config(sparse_grads="on" if sparse else "off", **overrides)
    train_model(model, graph, config)
    return model


def _assert_states_equal(a, b):
    state_a, state_b = a.state_dict(), b.state_dict()
    assert state_a.keys() == state_b.keys()
    for key in state_a:
        np.testing.assert_array_equal(state_a[key], state_b[key], err_msg=key)


class TestDenseSparseBitIdentity:
    @pytest.mark.parametrize("opt_name", sorted(OPTIMIZERS))
    @pytest.mark.parametrize("model_name", MODELS)
    def test_every_model_optimizer_combination(self, tiny_graph, model_name, opt_name):
        dense = _train(tiny_graph, model_name, sparse=False, **OPTIMIZERS[opt_name])
        sparse = _train(tiny_graph, model_name, sparse=True, **OPTIMIZERS[opt_name])
        _assert_states_equal(dense, sparse)

    @pytest.mark.parametrize("model_name", MODELS)
    def test_every_model_with_the_bce_loss(self, tiny_graph, model_name):
        # The fused BCE node hands the score gradient back in one piece;
        # the row-sparse gather must scatter it exactly like the dense one.
        overrides = {"loss": "bce", "optimizer": "adam"}
        dense = _train(tiny_graph, model_name, sparse=False, **overrides)
        sparse = _train(tiny_graph, model_name, sparse=True, **overrides)
        _assert_states_equal(dense, sparse)

    def test_auto_equals_forced_on_for_negative_sampling(self, tiny_graph):
        auto = create_model(
            "distmult",
            num_entities=tiny_graph.num_entities,
            num_relations=tiny_graph.num_relations,
            dim=8,
            seed=1,
        )
        train_model(auto, tiny_graph, _config(sparse_grads="auto"))
        assert auto.entity_embeddings.weight.sparse_grad
        forced = _train(tiny_graph, "distmult", sparse=True)
        _assert_states_equal(auto, forced)

    def test_auto_enables_lazy_optimizer_with_batch_hook(self, tiny_graph):
        # TransE's per-batch row renormalisation forces a flush per step,
        # leaving every stale row exactly one step behind — the lazy
        # optimizers replay that through the fused one-step kernel, so
        # auto keeps the fast path on for Adam and SGD+momentum too.
        def entity_flag(**overrides):
            model = create_model(
                "transe",
                num_entities=tiny_graph.num_entities,
                num_relations=tiny_graph.num_relations,
                dim=8,
                seed=1,
            )
            train_model(model, tiny_graph, _config(epochs=1, **overrides))
            return model.entity_embeddings.weight.sparse_grad

        assert entity_flag(sparse_grads="auto", optimizer="adam")
        assert entity_flag(sparse_grads="auto", optimizer="sgd", momentum=0.9)
        assert entity_flag(sparse_grads="auto", optimizer="adagrad")
        assert entity_flag(sparse_grads="auto", optimizer="sgd")
        assert not entity_flag(sparse_grads="off", optimizer="adam")

    def test_auto_stays_dense_for_kvsall(self, tiny_graph):
        model = create_model(
            "distmult",
            num_entities=tiny_graph.num_entities,
            num_relations=tiny_graph.num_relations,
            dim=8,
            seed=1,
        )
        train_model(
            model, tiny_graph, _config(job="kvsall", loss="bce", sparse_grads="auto")
        )
        assert not model.entity_embeddings.weight.sparse_grad

    def test_lr_decay_and_periodic_eval_flush_correctly(self, tiny_graph):
        # Periodic evaluation reads the parameters mid-run, so lazy Adam
        # rows must be flushed at every epoch boundary.
        overrides = {"eval_every": 1, "epochs": 3, "optimizer": "adam"}
        dense = _train(tiny_graph, "distmult", sparse=False, **overrides)
        sparse = _train(tiny_graph, "distmult", sparse=True, **overrides)
        _assert_states_equal(dense, sparse)

    def test_kvsall_forced_sparse_takes_the_densify_path(self, tiny_graph):
        # kvsall entity gradients arrive dense through the all-entity
        # matmul and densify any sparse lookup contribution; forcing the
        # flag must still be a pure no-op on the result.
        overrides = {"job": "kvsall", "loss": "bce"}
        dense = _train(tiny_graph, "distmult", sparse=False, **overrides)
        sparse = _train(tiny_graph, "distmult", sparse=True, **overrides)
        _assert_states_equal(dense, sparse)

