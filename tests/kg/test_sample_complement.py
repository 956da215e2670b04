"""Tests for complement sampling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.kg import KnowledgeGraph, sample_complement


def build(train, n=6, k=2) -> KnowledgeGraph:
    return KnowledgeGraph.from_arrays(
        name="g",
        num_entities=n,
        num_relations=k,
        train=np.asarray(train, dtype=np.int64).reshape(-1, 3),
        valid=np.zeros((0, 3), dtype=np.int64),
        test=np.zeros((0, 3), dtype=np.int64),
    )


class TestSampleComplement:
    def test_unlucky_rounds_on_a_nearly_complete_graph_raise(self):
        # Three of the four possible triples are known; with no resampling
        # rounds the single free slot can never be collected.
        graph = build([[0, 0, 0], [0, 0, 1], [1, 0, 0]], n=2, k=1)
        with pytest.raises(RuntimeError, match="nearly complete"):
            sample_complement(graph, 1, max_resample_rounds=0)
        np.testing.assert_array_equal(sample_complement(graph, 1), [[1, 0, 1]])

    def test_samples_are_not_in_graph(self, tiny_graph):
        sampled = sample_complement(tiny_graph, 200, seed=0)
        assert len(sampled) == 200
        assert not tiny_graph.all_triples().contains(sampled).any()

    def test_samples_are_distinct(self, tiny_graph):
        from repro.kg import encode_keys

        sampled = sample_complement(tiny_graph, 150, seed=1)
        keys = encode_keys(
            sampled, tiny_graph.num_entities, tiny_graph.num_relations
        )
        assert len(np.unique(keys)) == 150

    def test_ids_in_range(self, tiny_graph):
        sampled = sample_complement(tiny_graph, 50, seed=2)
        assert sampled[:, [0, 2]].max() < tiny_graph.num_entities
        assert sampled[:, 1].max() < tiny_graph.num_relations

    def test_deterministic(self, tiny_graph):
        a = sample_complement(tiny_graph, 40, seed=5)
        b = sample_complement(tiny_graph, 40, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_rejects_bad_count(self, tiny_graph):
        with pytest.raises(ValueError):
            sample_complement(tiny_graph, 0)

    def test_rejects_impossible_count(self):
        graph = build([[0, 0, 1]], n=2, k=1)
        with pytest.raises(ValueError, match="only"):
            sample_complement(graph, 10)

    def test_works_on_near_complete_graph(self):
        # 2 entities, 1 relation: 4 possible triples, 3 present.
        graph = build([[0, 0, 1], [1, 0, 0], [0, 0, 0]], n=2, k=1)
        sampled = sample_complement(graph, 1, seed=0)
        np.testing.assert_array_equal(sampled, [[1, 0, 1]])


class TestDiscoverValidation:
    def test_model_graph_mismatch_rejected(self, trained_distmult):
        from repro.discovery import discover_facts
        from repro.kg import KGProfile, generate_kg

        other = generate_kg(
            KGProfile(name="other", num_entities=77, num_relations=3,
                      num_triples=300, seed=1)
        )
        with pytest.raises(ValueError, match="wrong dataset"):
            discover_facts(trained_distmult, other, top_n=10, max_candidates=25)
