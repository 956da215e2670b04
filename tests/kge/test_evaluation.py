"""Tests for the ranking evaluation protocol, using a scripted model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.kg import KnowledgeGraph
from repro.kge import RankingMetrics, compute_ranks, evaluate_ranking
from repro.kge.base import KGEModel
from repro.kge.evaluation import triple_classification


class ScriptedModel(KGEModel):
    """A fake model whose score table is set explicitly by the test."""

    def __init__(self, num_entities: int, num_relations: int, table: np.ndarray):
        super().__init__(num_entities, num_relations, dim=2, seed=0)
        # table[s, r, o] = score
        self.table = table

    def score_spo(self, s, r, o):
        return Tensor(self.table[s, r, o])

    def score_sp(self, s, r):
        return Tensor(self.table[s, r, :])

    def score_po(self, r, o):
        return Tensor(self.table[:, r, o].T)


def build_graph(train, valid=(), test=(), n=5, k=1) -> KnowledgeGraph:
    return KnowledgeGraph.from_arrays(
        name="t",
        num_entities=n,
        num_relations=k,
        train=np.asarray(train, dtype=np.int64).reshape(-1, 3),
        valid=np.asarray(list(valid), dtype=np.int64).reshape(-1, 3),
        test=np.asarray(list(test), dtype=np.int64).reshape(-1, 3),
    )


class TestComputeRanks:
    def test_top_scoring_target_has_rank_one(self):
        table = np.zeros((5, 1, 5))
        table[0, 0, :] = [0.0, 10.0, 1.0, 2.0, 3.0]
        model = ScriptedModel(5, 1, table)
        ranks = compute_ranks(model, np.asarray([[0, 0, 1]]))
        np.testing.assert_array_equal(ranks, [1.0])

    def test_worst_target_has_rank_n(self):
        table = np.zeros((5, 1, 5))
        table[0, 0, :] = [4.0, 3.0, 2.0, 1.0, 0.0]
        model = ScriptedModel(5, 1, table)
        ranks = compute_ranks(model, np.asarray([[0, 0, 4]]))
        np.testing.assert_array_equal(ranks, [5.0])

    def test_ties_use_expected_position(self):
        table = np.zeros((5, 1, 5))  # all scores equal
        model = ScriptedModel(5, 1, table)
        ranks = compute_ranks(model, np.asarray([[0, 0, 2]]))
        # 0 greater, 5 equal (incl. target): rank = 0 + (5-1)/2 + 1 = 3
        np.testing.assert_array_equal(ranks, [3.0])

    def test_filtered_removes_known_objects(self):
        table = np.zeros((5, 1, 5))
        table[0, 0, :] = [0.0, 9.0, 8.0, 1.0, 0.0]
        model = ScriptedModel(5, 1, table)
        # Object 1 outranks target 2, but (0,0,1) is a known true triple.
        graph_filter = build_graph([[0, 0, 1]])
        raw = compute_ranks(model, np.asarray([[0, 0, 2]]))
        filtered = compute_ranks(
            model, np.asarray([[0, 0, 2]]), filter_triples=graph_filter.train
        )
        np.testing.assert_array_equal(raw, [2.0])
        np.testing.assert_array_equal(filtered, [1.0])

    def test_filtered_target_itself_survives(self):
        """The target is in the filter set but must still be rankable."""
        table = np.zeros((5, 1, 5))
        table[0, 0, :] = [0.0, 5.0, 1.0, 0.0, 0.0]
        model = ScriptedModel(5, 1, table)
        graph_filter = build_graph([[0, 0, 1]])
        ranks = compute_ranks(
            model, np.asarray([[0, 0, 1]]), filter_triples=graph_filter.train
        )
        np.testing.assert_array_equal(ranks, [1.0])

    def test_subject_side(self):
        table = np.zeros((5, 1, 5))
        table[:, 0, 3] = [1.0, 9.0, 2.0, 3.0, 4.0]
        model = ScriptedModel(5, 1, table)
        ranks = compute_ranks(model, np.asarray([[1, 0, 3]]), side="subject")
        np.testing.assert_array_equal(ranks, [1.0])

    def test_invalid_side(self):
        model = ScriptedModel(5, 1, np.zeros((5, 1, 5)))
        with pytest.raises(ValueError):
            compute_ranks(model, np.asarray([[0, 0, 1]]), side="diagonal")

    def test_empty_input(self):
        model = ScriptedModel(5, 1, np.zeros((5, 1, 5)))
        assert compute_ranks(model, np.zeros((0, 3))).shape == (0,)

    def test_reference_path_agrees_on_edge_cases(self):
        from repro.kge.evaluation import compute_ranks_reference

        model = ScriptedModel(5, 1, np.zeros((5, 1, 5)))
        assert compute_ranks_reference(model, np.zeros((0, 3))).shape == (0,)
        with pytest.raises(ValueError, match="side"):
            compute_ranks_reference(model, np.asarray([[0, 0, 1]]), side="diagonal")

    def test_chunking_matches_single_batch(self):
        rng = np.random.default_rng(0)
        table = rng.normal(size=(6, 2, 6))
        model = ScriptedModel(6, 2, table)
        triples = np.stack(
            [rng.integers(0, 6, 20), rng.integers(0, 2, 20), rng.integers(0, 6, 20)],
            axis=1,
        )
        full = compute_ranks(model, triples, chunk_size=100)
        chunked = compute_ranks(model, triples, chunk_size=3)
        np.testing.assert_array_equal(full, chunked)


class TestRankingMetrics:
    def test_from_ranks(self):
        metrics = RankingMetrics.from_ranks(np.asarray([1.0, 2.0, 10.0]))
        assert metrics.mrr == pytest.approx((1 + 0.5 + 0.1) / 3)
        assert metrics.mean_rank == pytest.approx(13 / 3)
        assert metrics.hits[1] == pytest.approx(1 / 3)
        assert metrics.hits[10] == pytest.approx(1.0)

    def test_empty_ranks(self):
        metrics = RankingMetrics.from_ranks(np.zeros(0))
        assert metrics.mrr == 0.0

    def test_custom_hits_levels(self):
        metrics = RankingMetrics.from_ranks(np.asarray([1.0, 5.0]), hits_at=(1, 5))
        assert set(metrics.hits) == {1, 5}


class TestEvaluateRanking:
    def test_unknown_split_raises(self, trained_distmult, tiny_graph):
        with pytest.raises(KeyError):
            evaluate_ranking(trained_distmult, tiny_graph, split="dev")

    def test_filtered_at_least_as_good_as_raw(self, trained_distmult, tiny_graph):
        filtered = evaluate_ranking(trained_distmult, tiny_graph, filtered=True)
        raw = evaluate_ranking(trained_distmult, tiny_graph, filtered=False)
        assert filtered.mrr >= raw.mrr - 1e-12

    def test_trained_model_beats_random_ranking(self, trained_distmult, tiny_graph):
        metrics = evaluate_ranking(trained_distmult, tiny_graph)
        random_mrr = np.mean(1.0 / np.arange(1, tiny_graph.num_entities + 1))
        assert metrics.mrr > 2 * random_mrr


class TestBothSidesEvaluation:
    def test_both_concatenates_sides(self, trained_distmult, tiny_graph):
        both = evaluate_ranking(trained_distmult, tiny_graph, side="both")
        object_only = evaluate_ranking(trained_distmult, tiny_graph, side="object")
        subject_only = evaluate_ranking(trained_distmult, tiny_graph, side="subject")
        assert both.ranks.size == object_only.ranks.size + subject_only.ranks.size
        expected = (object_only.mrr + subject_only.mrr) / 2
        assert both.mrr == pytest.approx(expected)


class TestHardNegatives:
    def test_negatives_are_false_and_type_consistent(
        self, trained_distmult, tiny_graph
    ):
        from repro.kge import generate_hard_negatives

        positives = tiny_graph.test.array
        negatives = generate_hard_negatives(tiny_graph, positives, seed=0)
        known = tiny_graph.all_triples()
        hits = known.contains(negatives)
        # The resampling loop may rarely fall through; false triples must
        # dominate overwhelmingly.
        assert hits.mean() < 0.05
        # Same subjects and relations, objects replaced.
        np.testing.assert_array_equal(negatives[:, 0], positives[:, 0])
        np.testing.assert_array_equal(negatives[:, 1], positives[:, 1])
        # Objects drawn from the relation's observed range (type
        # consistency) for the vast majority of rows.
        in_range = 0
        for (s, r, o) in negatives:
            rel_range = tiny_graph.train.by_relation(int(r))[:, 2]
            in_range += int(o in set(rel_range.tolist()))
        assert in_range / len(negatives) > 0.9

    def test_saturated_ranges_fall_back_to_uniform_corruption(self, tiny_graph):
        from repro.kge import generate_hard_negatives

        positives = tiny_graph.test.array
        negatives = generate_hard_negatives(
            tiny_graph, positives, seed=0, max_resample_rounds=0
        )
        # With no resampling round every row takes the uniform fallback:
        # subject and relation kept, object drawn over all entities, and
        # the draw is fixed by the seed.
        np.testing.assert_array_equal(negatives[:, :2], positives[:, :2])
        assert negatives[:, 2].min() >= 0
        assert negatives[:, 2].max() < tiny_graph.num_entities
        np.testing.assert_array_equal(
            negatives,
            generate_hard_negatives(tiny_graph, positives, seed=0, max_resample_rounds=0),
        )

    def test_hard_classification_not_easier(self, trained_distmult, tiny_graph):
        from repro.kge import triple_classification

        easy = triple_classification(trained_distmult, tiny_graph, seed=0)
        hard = triple_classification(
            trained_distmult, tiny_graph, seed=0, hard_negatives=True
        )
        # Type-consistent negatives are (weakly) harder to reject.
        assert hard["test_accuracy"] <= easy["test_accuracy"] + 0.1


class TestTripleClassification:
    def test_accuracy_above_chance(self, trained_distmult, tiny_graph):
        result = triple_classification(trained_distmult, tiny_graph, seed=0)
        assert result["test_accuracy"] > 0.55
        assert 0.0 <= result["valid_accuracy"] <= 1.0

    def test_returns_threshold(self, trained_distmult, tiny_graph):
        result = triple_classification(trained_distmult, tiny_graph, seed=0)
        assert np.isfinite(result["threshold"])
