"""Tests for graph transforms and inverse-leakage detection/repair."""

from __future__ import annotations

import numpy as np
import pytest

from repro.kg import (
    KnowledgeGraph,
    detect_inverse_leakage,
    filter_relations,
    induced_subgraph,
    remove_inverse_leakage,
)


def build(train, valid=(), test=(), n=10, k=4) -> KnowledgeGraph:
    return KnowledgeGraph.from_arrays(
        name="g",
        num_entities=n,
        num_relations=k,
        train=np.asarray(train, dtype=np.int64).reshape(-1, 3),
        valid=np.asarray(list(valid), dtype=np.int64).reshape(-1, 3),
        test=np.asarray(list(test), dtype=np.int64).reshape(-1, 3),
    )


@pytest.fixture()
def leaky_graph() -> KnowledgeGraph:
    """Relation 1 is the exact inverse of relation 0; relation 2 is
    symmetric; relation 3 is clean."""
    base = [[0, 0, 1], [1, 0, 2], [2, 0, 3], [3, 0, 4]]
    inverse = [[o, 1, s] for s, _, o in base]
    symmetric = [[5, 2, 6], [6, 2, 5], [7, 2, 8], [8, 2, 7]]
    clean = [[0, 3, 5], [1, 3, 6], [2, 3, 7]]
    return build(base + inverse + symmetric + clean)


class TestInducedSubgraph:
    def test_subset_without_internal_edges_gives_empty_splits(self):
        graph = build([[0, 0, 1], [1, 1, 2]], valid=[(2, 0, 3)], test=[(3, 1, 4)])
        for compact in (True, False):
            sub = induced_subgraph(graph, [0, 2, 4], compact=compact)
            assert len(sub.train) == len(sub.valid) == len(sub.test) == 0

    def test_keeps_only_internal_edges(self, small_graph):
        rng = np.random.default_rng(0)
        subset = rng.choice(small_graph.num_entities, size=40, replace=False)
        sub = induced_subgraph(small_graph, subset)
        # All triples use compacted ids within range.
        arr = sub.train.array
        if arr.size:
            assert arr[:, [0, 2]].max() < sub.num_entities

    def test_compacted_labels_preserved(self, small_graph):
        subset = np.arange(50)
        sub = induced_subgraph(small_graph, subset)
        original_labels = {small_graph.entities.label_of(i) for i in range(50)}
        assert set(sub.entities.labels) <= original_labels

    def test_non_compact_keeps_id_space(self, small_graph):
        subset = np.arange(50)
        sub = induced_subgraph(small_graph, subset, compact=False)
        assert sub.num_entities == small_graph.num_entities
        assert sub.num_relations == small_graph.num_relations

    def test_triples_subset_of_original(self, small_graph):
        subset = np.arange(60)
        sub = induced_subgraph(small_graph, subset, compact=False)
        assert small_graph.train.contains(sub.train.array).all()


class TestFilterRelations:
    def test_keeps_only_selected(self, leaky_graph):
        filtered = filter_relations(leaky_graph, [0, 3])
        assert set(filtered.train.unique_relations()) == {0, 3}

    def test_counts(self, leaky_graph):
        filtered = filter_relations(leaky_graph, [2])
        assert len(filtered.train) == 4


class TestDetectLeakage:
    def test_finds_inverse_pair(self, leaky_graph):
        leaks = detect_inverse_leakage(leaky_graph, threshold=0.8)
        pairs = {(l.relation, l.inverse) for l in leaks}
        assert (0, 1) in pairs and (1, 0) in pairs

    def test_finds_symmetric_self_leak(self, leaky_graph):
        leaks = detect_inverse_leakage(leaky_graph, threshold=0.8)
        assert (2, 2) in {(l.relation, l.inverse) for l in leaks}

    def test_clean_relation_not_flagged(self, leaky_graph):
        leaks = detect_inverse_leakage(leaky_graph, threshold=0.5)
        flagged = {l.relation for l in leaks} | {l.inverse for l in leaks}
        assert 3 not in flagged

    def test_overlap_values(self, leaky_graph):
        leaks = detect_inverse_leakage(leaky_graph, threshold=0.8)
        exact = [l for l in leaks if (l.relation, l.inverse) == (0, 1)]
        assert exact[0].overlap == pytest.approx(1.0)

    def test_threshold_validated(self, leaky_graph):
        with pytest.raises(ValueError):
            detect_inverse_leakage(leaky_graph, threshold=0.0)

    def test_partial_overlap_respects_threshold(self):
        # Only half of relation 0 is inverted in relation 1.
        base = [[0, 0, 1], [1, 0, 2], [2, 0, 3], [3, 0, 4]]
        partial_inverse = [[1, 1, 0], [2, 1, 1]]
        graph = build(base + partial_inverse, k=2)
        strict = detect_inverse_leakage(graph, threshold=0.8)
        assert (0, 1) not in {(l.relation, l.inverse) for l in strict}
        loose = detect_inverse_leakage(graph, threshold=0.4)
        assert (0, 1) in {(l.relation, l.inverse) for l in loose}


class TestRemoveLeakage:
    def test_drops_one_of_the_pair(self, leaky_graph):
        repaired, leaks = remove_inverse_leakage(leaky_graph, threshold=0.8)
        remaining = set(repaired.train.unique_relations().tolist())
        # Exactly one of {0, 1} must survive.
        assert len(remaining & {0, 1}) == 1
        assert leaks  # the detection result is returned

    def test_symmetric_relation_survives(self, leaky_graph):
        repaired, _ = remove_inverse_leakage(leaky_graph, threshold=0.8)
        assert 2 in set(repaired.train.unique_relations().tolist())

    def test_clean_relation_survives(self, leaky_graph):
        repaired, _ = remove_inverse_leakage(leaky_graph, threshold=0.8)
        assert 3 in set(repaired.train.unique_relations().tolist())

    def test_repaired_graph_has_no_cross_leaks(self, leaky_graph):
        repaired, _ = remove_inverse_leakage(leaky_graph, threshold=0.8)
        residual = [
            l
            for l in detect_inverse_leakage(repaired, threshold=0.8)
            if l.relation != l.inverse
        ]
        assert residual == []
