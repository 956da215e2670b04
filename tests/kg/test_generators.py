"""Tests for the synthetic KG generator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kg import GraphStatistics, KGProfile, generate_kg


def profile(**overrides) -> KGProfile:
    base = dict(
        name="test",
        num_entities=50,
        num_relations=5,
        num_triples=300,
        num_types=4,
        seed=3,
    )
    base.update(overrides)
    return KGProfile(**base)


class TestProfileValidation:
    def test_rejects_too_few_entities(self):
        with pytest.raises(ValueError):
            profile(num_entities=1)

    def test_rejects_zero_relations(self):
        with pytest.raises(ValueError):
            profile(num_relations=0)

    def test_rejects_zero_triples(self):
        with pytest.raises(ValueError, match="at least 1 triple"):
            profile(num_triples=0)

    def test_rejects_bad_closure_prob(self):
        with pytest.raises(ValueError):
            profile(triangle_closure_prob=1.5)

    def test_rejects_full_splits(self):
        with pytest.raises(ValueError):
            profile(valid_fraction=0.6, test_fraction=0.5)

    def test_rejects_overfull_id_space(self):
        with pytest.raises(ValueError, match="capacity"):
            profile(num_entities=2, num_relations=1, num_triples=4)


class TestGeneration:
    def test_deterministic(self):
        g1 = generate_kg(profile())
        g2 = generate_kg(profile())
        np.testing.assert_array_equal(g1.train.array, g2.train.array)
        np.testing.assert_array_equal(g1.test.array, g2.test.array)

    def test_different_seeds_differ(self):
        g1 = generate_kg(profile(seed=1))
        g2 = generate_kg(profile(seed=2))
        assert not np.array_equal(g1.train.array, g2.train.array)

    def test_triple_budget_respected(self):
        graph = generate_kg(profile())
        assert graph.num_triples <= 300
        assert graph.num_triples >= 0.8 * 300  # dedup losses are bounded

    def test_splits_are_disjoint(self):
        graph = generate_kg(profile())
        assert len(graph.train.intersection(graph.valid)) == 0
        assert len(graph.train.intersection(graph.test)) == 0
        assert len(graph.valid.intersection(graph.test)) == 0

    def test_heldout_entities_seen_in_train(self):
        """No valid/test triple may reference an entity unseen in training."""
        graph = generate_kg(profile())
        seen = set(graph.train.unique_entities().tolist())
        for split in (graph.valid, graph.test):
            for s, _, o in split:
                assert s in seen and o in seen

    def test_heldout_relations_seen_in_train(self):
        graph = generate_kg(profile())
        seen = set(graph.train.unique_relations().tolist())
        for split in (graph.valid, graph.test):
            for _, r, _ in split:
                assert r in seen

    def test_closure_increases_clustering(self):
        sparse = generate_kg(profile(triangle_closure_prob=0.0, seed=9))
        dense = generate_kg(profile(triangle_closure_prob=0.4, seed=9))
        cc_sparse = GraphStatistics(sparse.train, backend="sparse").average_clustering
        cc_dense = GraphStatistics(dense.train, backend="sparse").average_clustering
        assert cc_dense > cc_sparse

    def test_popularity_skew(self):
        """With a strong Zipf exponent some entities dominate frequency."""
        graph = generate_kg(profile(popularity_exponent=1.2, num_triples=400))
        stats = GraphStatistics(graph.train, backend="sparse")
        freq = stats.subject_frequency + stats.object_frequency
        top_share = np.sort(freq)[::-1][:5].sum() / freq.sum()
        assert top_share > 0.2

    def test_metadata_recorded(self):
        graph = generate_kg(profile())
        assert graph.metadata["profile"] == "test"
        assert graph.metadata["seed"] == 3
        assert graph.metadata["entity_types"].shape == (50,)


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(10, 60),
    k=st.integers(1, 6),
    seed=st.integers(0, 1000),
)
def test_generated_graphs_always_valid(n, k, seed):
    """Any sane profile yields a structurally consistent graph."""
    graph = generate_kg(
        KGProfile(
            name="prop",
            num_entities=n,
            num_relations=k,
            num_triples=min(5 * n, n * n * k // 4),
            num_types=3,
            seed=seed,
        )
    )
    assert graph.num_entities == n
    assert graph.num_relations == k
    arr = graph.train.array
    if arr.size:
        assert arr[:, [0, 2]].max() < n
        assert arr[:, 1].max() < k
    # Splits disjoint.
    assert len(graph.train.intersection(graph.valid)) == 0
    assert len(graph.valid.intersection(graph.test)) == 0
