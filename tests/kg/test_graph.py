"""Tests for the KnowledgeGraph container."""

from __future__ import annotations

import dataclasses
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.kg import KnowledgeGraph, TripleSet, Vocabulary
from repro.kge.evaluation import evaluate_ranking


def build(train, valid=(), test=(), n=6, k=2) -> KnowledgeGraph:
    return KnowledgeGraph.from_arrays(
        name="g",
        num_entities=n,
        num_relations=k,
        train=np.asarray(train, dtype=np.int64).reshape(-1, 3),
        valid=np.asarray(list(valid), dtype=np.int64).reshape(-1, 3),
        test=np.asarray(list(test), dtype=np.int64).reshape(-1, 3),
    )


class TestConstruction:
    def test_sizes(self):
        g = build([[0, 0, 1], [1, 1, 2]], valid=[(2, 0, 3)], test=[(3, 1, 4)])
        assert g.num_entities == 6
        assert g.num_relations == 2
        assert g.num_triples == 4

    def test_default_labels(self):
        g = build([[0, 0, 1]])
        assert g.entities.label_of(0) == "e_0"
        assert g.relations.label_of(1) == "r_1"

    def test_custom_labels(self):
        g = KnowledgeGraph.from_arrays(
            name="bio",
            num_entities=2,
            num_relations=1,
            train=np.asarray([[0, 0, 1]]),
            valid=np.zeros((0, 3), dtype=np.int64),
            test=np.zeros((0, 3), dtype=np.int64),
            entity_labels=["aspirin", "headache"],
            relation_labels=["treats"],
        )
        assert g.label_triple((0, 0, 1)) == ("aspirin", "treats", "headache")

    def test_label_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            KnowledgeGraph.from_arrays(
                name="bad",
                num_entities=3,
                num_relations=1,
                train=np.asarray([[0, 0, 1]]),
                valid=np.zeros((0, 3), dtype=np.int64),
                test=np.zeros((0, 3), dtype=np.int64),
                entity_labels=["only-one"],
            )

    def test_mismatched_split_space_rejected(self):
        entities = Vocabulary.from_range("e", 4)
        relations = Vocabulary.from_range("r", 1)
        wrong = TripleSet(np.asarray([[0, 0, 1]]), 99, 1)
        with pytest.raises(ValueError):
            KnowledgeGraph(
                name="bad",
                entities=entities,
                relations=relations,
                train=wrong,
                valid=wrong,
                test=wrong,
            )

    def test_mismatched_relation_space_rejected(self):
        entities = Vocabulary.from_range("e", 4)
        relations = Vocabulary.from_range("r", 2)
        wrong = TripleSet(np.asarray([[0, 0, 1]]), 4, 5)
        with pytest.raises(ValueError, match="relation space"):
            KnowledgeGraph(
                name="bad",
                entities=entities,
                relations=relations,
                train=wrong,
                valid=wrong,
                test=wrong,
            )


class TestDerived:
    def test_all_triples_unions_splits(self):
        g = build([[0, 0, 1]], valid=[(1, 0, 2)], test=[(2, 0, 3)])
        assert len(g.all_triples()) == 3

    def test_all_triples_equals_the_chained_union(self):
        """Overlapping splits: rows keep their first occurrence, so the
        array and keys equal those of train ∪ valid ∪ test done pairwise."""
        g = build(
            [[3, 1, 0], [0, 0, 1], [3, 1, 0]],
            valid=[(5, 1, 4), (0, 0, 1), (2, 0, 2)],
            test=[(2, 0, 2), (1, 1, 5), (3, 1, 0), (4, 0, 3)],
        )
        chained = g.train.union(g.valid).union(g.test)
        merged = g.all_triples()
        np.testing.assert_array_equal(merged.array, chained.array)
        np.testing.assert_array_equal(merged._sorted_keys, chained._sorted_keys)
        assert merged == chained and len(merged) == 6

    def test_complement_size(self):
        g = build([[0, 0, 1]], n=4, k=1)
        assert g.complement_size() == 4 * 4 * 1 - 1

    def test_average_relations_per_entity(self):
        g = build([[0, 0, 1], [1, 0, 2], [2, 0, 3]], n=6)
        assert g.average_relations_per_entity() == pytest.approx(1.0)

    def test_repr_contains_name_and_counts(self):
        g = build([[0, 0, 1]])
        text = repr(g)
        assert "'g'" in text and "train=1" in text


def _fresh_union(g: KnowledgeGraph) -> TripleSet:
    """The union of ``g``'s splits, built from scratch."""
    splits = np.concatenate([g.train.array, g.valid.array, g.test.array])
    return TripleSet(splits, g.num_entities, g.num_relations)


class TestFrozenUnion:
    def test_assigning_a_split_raises(self):
        g = build([[0, 0, 1]], valid=[(1, 0, 2)])
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.train = g.valid

    def test_union_is_cached_and_equals_a_fresh_build(self):
        g = build(
            [[3, 1, 0], [0, 0, 1]],
            valid=[(5, 1, 4), (0, 0, 1)],
            test=[(2, 0, 2), (3, 1, 0)],
        )
        union = g.all_triples()
        assert g.all_triples() is union
        fresh = _fresh_union(g)
        np.testing.assert_array_equal(union.array, fresh.array)
        np.testing.assert_array_equal(union._sorted_keys, fresh._sorted_keys)

    def test_two_rankings_build_the_union_and_its_subject_column_once(
        self, tiny_graph, trained_distmult, monkeypatch
    ):
        graph = dataclasses.replace(tiny_graph)  # a cold copy: no union yet
        reference = _fresh_union(graph)
        unions, columns = [], []
        init, column = TripleSet.__init__, TripleSet._subject_key_column

        def counting_init(triples, *args, **kwargs):
            init(triples, *args, **kwargs)
            if triples == reference:
                unions.append(triples)

        def counting_column(triples):
            if triples._subject_keys is None:
                columns.append(triples)
            return column(triples)

        monkeypatch.setattr(TripleSet, "__init__", counting_init)
        monkeypatch.setattr(TripleSet, "_subject_key_column", counting_column)
        first = evaluate_ranking(trained_distmult, graph, split="valid", side="both")
        second = evaluate_ranking(trained_distmult, graph, split="valid", side="both")
        assert len(unions) == 1 and len(columns) == 1
        assert columns[0] is unions[0] is graph.all_triples()
        assert first.mrr == second.mrr

    def test_threads_racing_on_a_cold_graph_get_equal_unions(self, tiny_graph):
        graph = dataclasses.replace(tiny_graph)
        reference = _fresh_union(graph)
        barrier = threading.Barrier(4)

        def first_call(_):
            barrier.wait(timeout=10)
            return graph.all_triples()

        with ThreadPoolExecutor(max_workers=4) as pool:
            unions = list(pool.map(first_call, range(4)))
        for union in unions:
            assert union == reference
            np.testing.assert_array_equal(union.array, reference.array)
