"""Tests for the exhaustive CHAI-style baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.discovery import RuleFilter, discover_facts, exhaustive_discover_facts
from repro.kg import encode_keys


class TestExhaustive:
    @pytest.fixture(scope="class")
    def result(self, trained_distmult, tiny_graph):
        return exhaustive_discover_facts(
            trained_distmult, tiny_graph, top_n=10, relations=[0],
        )

    def test_facts_not_in_training(self, result, tiny_graph):
        if result.num_facts:
            assert not tiny_graph.train.contains(result.facts).any()

    def test_ranks_within_top_n(self, result):
        assert (result.ranks <= 10).all()

    def test_covers_full_complement(self, result, tiny_graph):
        n = tiny_graph.num_entities
        expected = n * (n - 1) - len(tiny_graph.train.by_relation(0))
        # Self-loops among training triples are possible; allow exactness
        # within the self-loop count.
        assert abs(result.candidates_generated - expected) <= n

    def test_strategy_label(self, result):
        assert result.strategy == "exhaustive"

    def test_sampled_facts_subset_of_exhaustive(
        self, trained_distmult, tiny_graph, result
    ):
        """Every sampled discovery is also found by the exhaustive sweep
        (same relation, same top_n) — sampling only narrows coverage."""
        sampled = discover_facts(
            trained_distmult, tiny_graph, strategy="entity_frequency",
            relations=[0], top_n=10, max_candidates=200, seed=0,
        )
        if sampled.num_facts == 0:
            pytest.skip("sampling found nothing to compare")
        n, k = tiny_graph.num_entities, tiny_graph.num_relations
        exhaustive_keys = set(encode_keys(result.facts, n, k).tolist())
        sampled_keys = set(encode_keys(sampled.facts, n, k).tolist())
        assert sampled_keys <= exhaustive_keys


class TestWithRules:
    def test_rules_reduce_candidates(self, trained_distmult, tiny_graph):
        plain = exhaustive_discover_facts(
            trained_distmult, tiny_graph, top_n=10, relations=[0],
        )
        rules = RuleFilter(tiny_graph.train)
        pruned = exhaustive_discover_facts(
            trained_distmult, tiny_graph, top_n=10, relations=[0],
            rule_filter=rules,
        )
        assert pruned.candidates_generated < plain.candidates_generated
        assert pruned.strategy == "exhaustive+rules"

    def test_pruned_facts_respect_rules(self, trained_distmult, tiny_graph):
        rules = RuleFilter(tiny_graph.train)
        pruned = exhaustive_discover_facts(
            trained_distmult, tiny_graph, top_n=10, relations=[0],
            rule_filter=rules,
        )
        if pruned.num_facts:
            assert rules.accept_mask(pruned.facts).all()


class TestCap:
    def test_max_candidates_cap(self, trained_distmult, tiny_graph):
        result = exhaustive_discover_facts(
            trained_distmult, tiny_graph, top_n=10, relations=[0],
            max_candidates_per_relation=50, seed=1,
        )
        assert result.candidates_generated == 50

    def test_cap_is_deterministic(self, trained_distmult, tiny_graph):
        kwargs = dict(top_n=10, relations=[0], max_candidates_per_relation=50, seed=2)
        a = exhaustive_discover_facts(trained_distmult, tiny_graph, **kwargs)
        b = exhaustive_discover_facts(trained_distmult, tiny_graph, **kwargs)
        np.testing.assert_array_equal(a.facts, b.facts)


class TestDefaultsAndTracing:
    def test_all_training_relations_by_default(self, trained_distmult, tiny_graph):
        kwargs = dict(top_n=10, max_candidates_per_relation=60, seed=1)
        everything = exhaustive_discover_facts(
            trained_distmult, tiny_graph, **kwargs
        )
        relations = [int(r) for r in tiny_graph.train.unique_relations()]
        assert list(everything.per_relation) == relations
        explicit = exhaustive_discover_facts(
            trained_distmult, tiny_graph, relations=relations, **kwargs
        )
        np.testing.assert_array_equal(everything.facts, explicit.facts)
        np.testing.assert_array_equal(everything.ranks, explicit.ranks)

    def test_trace_recorded_when_observed(self, trained_distmult, tiny_graph):
        from repro.obs import MetricsRegistry, use_registry

        registry = MetricsRegistry()
        with use_registry(registry):
            result = exhaustive_discover_facts(
                trained_distmult, tiny_graph, top_n=10, relations=[0, 1],
                max_candidates_per_relation=40,
            )
        assert result.trace["discover"]["count"] == 1
        assert result.trace["discover/discover.generate"]["count"] == 2
        counters = registry.snapshot()["counters"]
        assert counters["discover.relations_count"] == 2
        assert counters["discover.candidates_count"] == result.candidates_generated


class _PruneEverything:
    def filter(self, candidates):
        return candidates[:0]


def test_relation_pruned_to_nothing_yields_no_facts(trained_distmult, tiny_graph):
    result = exhaustive_discover_facts(
        trained_distmult, tiny_graph, top_n=10, relations=[0, 1],
        rule_filter=_PruneEverything(),
    )
    assert result.facts.shape == (0, 3)
    assert result.ranks.shape == (0,)
    assert result.candidates_generated == 0
