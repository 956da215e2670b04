"""Tests for the reciprocal-relations wrapper."""

from __future__ import annotations

import numpy as np
import pytest

from repro.kge import TrainConfig, evaluate_ranking, train_model
from repro.kge.reciprocal import ReciprocalWrapper


@pytest.fixture()
def wrapper():
    return ReciprocalWrapper.create(
        "distmult", num_entities=12, num_relations=3, dim=8, seed=1
    )


class TestConstruction:
    def test_inner_has_doubled_relations(self, wrapper):
        assert wrapper.inner.num_relations == 6
        assert wrapper.num_relations == 3

    def test_rejects_odd_inner(self):
        from repro.kge import create_model

        inner = create_model("distmult", num_entities=4, num_relations=3, dim=4)
        with pytest.raises(ValueError):
            ReciprocalWrapper(inner)

    def test_parameters_are_inner_parameters(self, wrapper):
        assert list(wrapper.parameters()) == list(wrapper.inner.parameters())

    def test_train_eval_propagate(self, wrapper):
        wrapper.eval()
        assert not wrapper.inner.training
        wrapper.train()
        assert wrapper.inner.training

    def test_modules_list_the_wrapper_then_the_inner_tree(self, wrapper):
        modules = list(wrapper.modules())
        assert modules[0] is wrapper
        assert modules[1:] == list(wrapper.inner.modules())
        assert repr(wrapper).startswith("ReciprocalWrapper(")

    def test_post_batch_hook_reaches_the_inner_model(self):
        wrapper = ReciprocalWrapper.create(
            "transe", num_entities=12, num_relations=3, dim=8, seed=1,
            normalize_entities=True,
        )
        wrapper.inner.entity_embeddings.weight.data *= 5.0
        wrapper.post_batch_hook()
        norms = np.linalg.norm(wrapper.entity_matrix(), axis=1)
        np.testing.assert_allclose(norms, 1.0, rtol=1e-9)


class TestScoring:
    def test_forward_scores_delegate(self, wrapper):
        s = np.asarray([0, 5])
        r = np.asarray([0, 2])
        o = np.asarray([1, 7])
        np.testing.assert_array_equal(
            wrapper.scores_spo(np.stack([s, r, o], 1)),
            wrapper.inner.scores_spo(np.stack([s, r, o], 1)),
        )

    def test_score_po_uses_reciprocal_relation(self, wrapper):
        r = np.asarray([0, 2])
        o = np.asarray([1, 7])
        via_wrapper = wrapper.scores_po(r, o)
        via_inner = wrapper.inner.scores_sp(o, r + 3)
        np.testing.assert_array_equal(via_wrapper, via_inner)

    def test_score_po_shape(self, wrapper):
        out = wrapper.scores_po(np.asarray([0]), np.asarray([4]))
        assert out.shape == (1, 12)

    def test_tape_score_po_uses_reciprocal_relation(self, wrapper):
        """The gradient path answers subject queries the same way as the
        ranking path: object-side scoring under relation r + K."""
        r = np.asarray([0, 2])
        o = np.asarray([1, 7])
        tape = wrapper.score_po(r, o).data
        np.testing.assert_array_equal(tape, wrapper.inner.score_sp(o, r + 3).data)
        np.testing.assert_allclose(tape, wrapper.scores_po(r, o), rtol=1e-12)

    def test_tape_score_sp_delegates(self, wrapper):
        s = np.asarray([0, 5])
        r = np.asarray([0, 2])
        np.testing.assert_array_equal(
            wrapper.score_sp(s, r).data, wrapper.inner.score_sp(s, r).data
        )

    def test_embedding_matrices_are_the_inner_ones(self, wrapper):
        np.testing.assert_array_equal(
            wrapper.entity_matrix(), wrapper.inner.entity_matrix()
        )
        # The relation matrix keeps both directions: 2·K rows.
        assert wrapper.relation_matrix().shape[0] == 6


class TestAugmentation:
    def test_adds_inverted_triples(self, wrapper):
        triples = np.asarray([[0, 0, 1], [2, 1, 3]])
        augmented = wrapper.augment_training_triples(triples)
        assert augmented.shape == (4, 3)
        np.testing.assert_array_equal(augmented[2], [1, 3, 0])
        np.testing.assert_array_equal(augmented[3], [3, 4, 2])


class TestTraining:
    def test_trains_and_evaluates_both_sides(self, tiny_graph):
        wrapper = ReciprocalWrapper.create(
            "distmult",
            num_entities=tiny_graph.num_entities,
            num_relations=tiny_graph.num_relations,
            dim=16,
            seed=0,
        )
        # Train the inner model on the reciprocal-augmented triple set by
        # constructing an augmented graph view.
        from repro.kg import KnowledgeGraph

        augmented = KnowledgeGraph.from_arrays(
            name="aug",
            num_entities=tiny_graph.num_entities,
            num_relations=2 * tiny_graph.num_relations,
            train=wrapper.augment_training_triples(tiny_graph.train.array),
            valid=np.zeros((0, 3), dtype=np.int64),
            test=np.zeros((0, 3), dtype=np.int64),
        )
        result = train_model(
            wrapper.inner,
            augmented,
            TrainConfig(
                job="kvsall", loss="bce", epochs=20, batch_size=64, lr=0.05,
                label_smoothing=0.1,
            ),
        )
        assert result.losses[-1] < result.losses[0]
        wrapper.eval()
        both = evaluate_ranking(wrapper, tiny_graph, side="both")
        random_mrr = float(
            np.mean(1.0 / np.arange(1, tiny_graph.num_entities + 1))
        )
        assert both.mrr > 2 * random_mrr

    def test_state_dict_roundtrip(self, wrapper):
        state = wrapper.state_dict()
        other = ReciprocalWrapper.create(
            "distmult", num_entities=12, num_relations=3, dim=8, seed=9
        )
        other.load_state_dict(state)
        s = np.asarray([0, 1])
        r = np.asarray([0, 1])
        np.testing.assert_array_equal(
            wrapper.scores_sp(s, r), other.scores_sp(s, r)
        )
