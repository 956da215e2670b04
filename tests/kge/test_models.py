"""Model-interface tests applied uniformly to all six KGE models.

The key invariant: ``score_sp`` / ``score_po`` must agree column-by-column
with ``score_spo`` — the all-entities forms are vectorised shortcuts, not
different scoring functions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import no_grad
from repro.kge import available_models, create_model
from repro.kge.reciprocal import ReciprocalWrapper

N_ENTITIES = 12
N_RELATIONS = 3
DIM = 8

ALL_MODELS = [
    "transe", "distmult", "complex", "rescal", "hole", "conve",
    "rotate", "simple", "tucker",
]


@pytest.fixture(params=ALL_MODELS)
def model(request):
    m = create_model(
        request.param,
        num_entities=N_ENTITIES,
        num_relations=N_RELATIONS,
        dim=DIM,
        seed=1,
    )
    m.eval()  # deterministic scoring (dropout off, running BN stats)
    # Run one training-mode batch so ConvE's batch-norm running stats are
    # non-degenerate before eval-mode scoring.
    m.train()
    with no_grad():
        m.score_sp(np.arange(N_ENTITIES), np.zeros(N_ENTITIES, dtype=np.int64))
    m.eval()
    return m


class TestRegistry:
    def test_all_models_registered(self):
        assert set(ALL_MODELS) <= set(available_models())

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            create_model("transformer", num_entities=4, num_relations=1, dim=4)

    def test_duplicate_registration_rejected(self):
        from repro.kge.base import register_model

        with pytest.raises(ValueError):

            @register_model("transe")
            class Duplicate:  # pragma: no cover - definition itself raises
                pass

    def test_invalid_dim_rejected(self):
        with pytest.raises(ValueError):
            create_model("transe", num_entities=4, num_relations=1, dim=0)


class TestScoringInterface:
    def test_score_spo_shape(self, model):
        s = np.asarray([0, 1, 2])
        r = np.asarray([0, 1, 2])
        o = np.asarray([3, 4, 5])
        scores = model.scores_spo(np.stack([s, r, o], axis=1))
        assert scores.shape == (3,)
        assert np.isfinite(scores).all()

    def test_score_sp_shape(self, model):
        scores = model.scores_sp(np.asarray([0, 1]), np.asarray([0, 1]))
        assert scores.shape == (2, N_ENTITIES)
        assert np.isfinite(scores).all()

    def test_score_po_shape(self, model):
        scores = model.scores_po(np.asarray([0, 1]), np.asarray([2, 3]))
        assert scores.shape == (2, N_ENTITIES)
        assert np.isfinite(scores).all()

    def test_score_sp_consistent_with_spo(self, model):
        """Column o of score_sp(s, r) must equal score_spo(s, r, o)."""
        s = np.asarray([0, 3, 7])
        r = np.asarray([0, 1, 2])
        rows = model.scores_sp(s, r)
        for o in range(N_ENTITIES):
            direct = model.scores_spo(
                np.stack([s, r, np.full(3, o)], axis=1)
            )
            np.testing.assert_allclose(rows[:, o], direct, rtol=1e-9, atol=1e-9)

    def test_score_po_consistent_with_spo(self, model):
        """Column s of score_po(r, o) must equal score_spo(s, r, o)."""
        r = np.asarray([0, 1])
        o = np.asarray([5, 9])
        rows = model.scores_po(r, o)
        for s in range(N_ENTITIES):
            direct = model.scores_spo(
                np.stack([np.full(2, s), r, o], axis=1)
            )
            np.testing.assert_allclose(rows[:, s], direct, rtol=1e-9, atol=1e-9)

    def test_embedding_matrices_shapes(self, model):
        assert model.entity_matrix().shape[0] == N_ENTITIES
        assert model.relation_matrix().shape[0] == N_RELATIONS

    def test_deterministic_given_seed(self):
        for name in ALL_MODELS:
            a = create_model(name, num_entities=6, num_relations=2, dim=8, seed=3)
            b = create_model(name, num_entities=6, num_relations=2, dim=8, seed=3)
            np.testing.assert_array_equal(a.entity_matrix(), b.entity_matrix())


class TestModelSpecifics:
    def test_transe_invalid_norm(self):
        with pytest.raises(ValueError):
            create_model("transe", num_entities=4, num_relations=1, dim=4, norm="l3")

    def test_transe_normalized_entities(self):
        m = create_model("transe", num_entities=8, num_relations=2, dim=6)
        norms = np.linalg.norm(m.entity_matrix(), axis=1)
        np.testing.assert_allclose(norms, 1.0)

    def test_complex_requires_even_dim(self):
        with pytest.raises(ValueError):
            create_model("complex", num_entities=4, num_relations=1, dim=7)

    def test_rescal_relation_matrix_is_dim_squared(self):
        m = create_model("rescal", num_entities=4, num_relations=2, dim=5)
        assert m.relation_matrix().shape == (2, 25)

    def test_conve_grid_shape_divides_dim(self):
        m = create_model("conve", num_entities=6, num_relations=2, dim=24)
        assert m.emb_h * m.emb_w == 24

    def test_conve_invalid_height(self):
        with pytest.raises(ValueError):
            create_model(
                "conve", num_entities=6, num_relations=2, dim=24, embedding_height=5
            )

    def test_conve_kernel_larger_than_the_embedding_grid(self):
        # dim 4 reshapes to a 2×2 grid (4×2 once stacked): a 3×3 kernel
        # cannot slide over it.
        with pytest.raises(ValueError, match="smaller than kernel"):
            create_model("conve", num_entities=6, num_relations=2, dim=4)
        model = create_model(
            "conve", num_entities=6, num_relations=2, dim=4, kernel_size=2
        )
        assert (model.emb_h, model.emb_w) == (2, 2)

    def test_transe_scores_are_nonpositive(self):
        m = create_model("transe", num_entities=6, num_relations=2, dim=8)
        scores = m.scores_sp(np.asarray([0]), np.asarray([0]))
        assert (scores <= 0).all()


@pytest.mark.parametrize(
    "name, options",
    [
        ("transe", {"norm": "l1"}),
        ("transe", {"norm": "l2"}),
        ("rotate", {}),
    ],
    ids=["transe-l1", "transe-l2", "rotate"],
)
def test_tape_scores_match_the_numpy_inference_path(name, options):
    """Models with a numpy fast path for ranking keep the tape-based
    score_sp/score_po (used for gradients) numerically identical to it."""
    model = create_model(
        name, num_entities=N_ENTITIES, num_relations=N_RELATIONS, dim=DIM,
        seed=1, **options,
    )
    model.eval()
    s = np.asarray([0, 3, 7])
    r = np.asarray([0, 1, 2])
    o = np.asarray([5, 9, 1])
    np.testing.assert_allclose(
        model.score_sp(s, r).data, model.scores_sp(s, r), rtol=1e-9, atol=1e-9
    )
    np.testing.assert_allclose(
        model.score_po(r, o).data, model.scores_po(r, o), rtol=1e-9, atol=1e-9
    )


@pytest.mark.parametrize("side", ["sp", "po", "spo"])
@pytest.mark.parametrize("reciprocal", [False, True], ids=["plain", "reciprocal"])
@pytest.mark.parametrize("name", available_models())
def test_numpy_scores_are_fresh_arrays(name, reciprocal, side):
    """The numpy wrappers return arrays nothing else holds.

    Callers such as ``compute_ranks_reference`` mask score rows in place,
    so a returned array must share no memory with a parameter and must
    not feed the next call.
    """
    build = ReciprocalWrapper.create if reciprocal else create_model
    model = build(
        name, num_entities=N_ENTITIES, num_relations=N_RELATIONS, dim=DIM, seed=1
    )
    model.eval()
    entities, relations = np.asarray([3, 0, 7]), np.asarray([0, 1, 2])

    def score():
        if side == "sp":
            return model.scores_sp(entities, relations)
        if side == "po":
            return model.scores_po(relations, entities)
        return model.scores_spo(np.stack([entities, relations, entities], axis=1))

    first = score()
    for param in model.parameters():
        assert not np.shares_memory(first, param.data)
    expected = first.copy()
    first[...] = np.nan
    np.testing.assert_array_equal(score(), expected)
