"""Tests for the held-out fact-discovery evaluation protocol (§6)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.discovery import heldout_discovery_protocol, hide_triples
from repro.kge import ModelConfig, TrainConfig


class TestHideTriples:
    def test_sizes(self, small_graph):
        reduced, hidden = hide_triples(small_graph, fraction=0.2, seed=0)
        assert len(hidden) == int(len(small_graph.train) * 0.2)
        assert len(reduced.train) + len(hidden) == len(small_graph.train)

    def test_partition_is_exact(self, small_graph):
        reduced, hidden = hide_triples(small_graph, fraction=0.2, seed=0)
        assert len(reduced.train.intersection(hidden)) == 0
        assert reduced.train.union(hidden) == small_graph.train

    def test_hidden_entities_remain_observable(self, small_graph):
        """Every hidden triple's entities/relation still appear in the
        reduced training split — it stays discoverable in principle."""
        reduced, hidden = hide_triples(small_graph, fraction=0.2, seed=0)
        seen_entities = set(reduced.train.unique_entities().tolist())
        seen_relations = set(reduced.train.unique_relations().tolist())
        for s, r, o in hidden:
            assert s in seen_entities and o in seen_entities
            assert r in seen_relations

    def test_deterministic(self, small_graph):
        _, h1 = hide_triples(small_graph, fraction=0.15, seed=3)
        _, h2 = hide_triples(small_graph, fraction=0.15, seed=3)
        assert h1 == h2

    def test_invalid_fraction(self, small_graph):
        with pytest.raises(ValueError):
            hide_triples(small_graph, fraction=0.0)
        with pytest.raises(ValueError):
            hide_triples(small_graph, fraction=1.0)

    def test_fraction_too_small_to_hide_a_single_triple(self, small_graph):
        fraction = 0.5 / len(small_graph.train)
        with pytest.raises(ValueError, match="nothing would be hidden"):
            hide_triples(small_graph, fraction=fraction)

    def test_valid_test_untouched(self, small_graph):
        reduced, _ = hide_triples(small_graph, fraction=0.2, seed=0)
        assert reduced.valid == small_graph.valid
        assert reduced.test == small_graph.test


class TestProtocol:
    @pytest.fixture(scope="class")
    def result(self, small_graph):
        return heldout_discovery_protocol(
            small_graph,
            ModelConfig("distmult", dim=24, seed=0),
            TrainConfig(
                job="kvsall", loss="bce", epochs=50, batch_size=128, lr=0.05,
                label_smoothing=0.1,
            ),
            strategy="entity_frequency",
            hide_fraction=0.15,
            top_n=40,
            max_candidates=300,
            seed=0,
        )

    def test_counts_consistent(self, result):
        assert 0 <= result.num_recovered <= result.num_hidden
        assert result.num_recovered <= result.num_discovered

    def test_recall_definition(self, result):
        assert result.recall == pytest.approx(
            result.num_recovered / result.num_hidden
        )

    def test_precision_definition(self, result):
        assert result.known_true_precision == pytest.approx(
            result.num_recovered / result.num_discovered
        )

    def test_protocol_recovers_hidden_facts(self, result):
        """The whole point: a trained model + sampling should rediscover a
        non-trivial share of what was hidden."""
        assert result.num_recovered > 0
        assert result.recall > 0.02

    def test_per_relation_recall_bounded(self, result):
        for value in result.per_relation_recall.values():
            assert 0.0 <= value <= 1.0

    def test_per_relation_recall_matches_a_hand_count(self, small_graph, result):
        _, hidden = hide_triples(small_graph, fraction=0.15, seed=0)
        discovered = set(map(tuple, result.discovery.facts.tolist()))
        totals: dict[int, int] = {}
        hits: dict[int, int] = {}
        for s, r, o in hidden:
            totals[r] = totals.get(r, 0) + 1
            hits[r] = hits.get(r, 0) + ((s, r, o) in discovered)
        want = {r: hits[r] / totals[r] for r in totals}
        assert result.per_relation_recall == want
        assert any(value > 0 for value in want.values())

    def test_summary_flat(self, result):
        summary = result.summary()
        assert set(summary) == {
            "hidden_count", "discovered_count", "recovered_count", "recall",
            "known_true_precision",
        }
        # The pre-observability aliases completed their deprecation cycle.
        assert "num_hidden" not in summary

    def test_popularity_sampling_beats_uniform_recall(self, small_graph):
        """The paper's finding restated in protocol terms: EF recovers
        more hidden facts than UR under the same budget."""
        common = dict(
            model_config=ModelConfig("distmult", dim=24, seed=0),
            train_config=TrainConfig(
                job="kvsall", loss="bce", epochs=50, batch_size=128, lr=0.05,
                label_smoothing=0.1,
            ),
            hide_fraction=0.15,
            top_n=40,
            max_candidates=300,
            seed=0,
        )
        ef = heldout_discovery_protocol(
            small_graph, strategy="entity_frequency", **common
        )
        ur = heldout_discovery_protocol(
            small_graph, strategy="uniform_random", **common
        )
        assert ef.recall >= ur.recall
