"""Tests for the exploration-aware extension strategies (§6)."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.discovery import (
    EntityFrequency,
    InverseFrequency,
    MixtureStrategy,
    PageRankStrategy,
    TemperedFrequency,
    UniformRandom,
    create_strategy,
    long_tail_coverage,
    pagerank,
)
from repro.kg import GraphStatistics, TripleSet
from repro.kg.stats import OBJECT, SUBJECT


def stats_for(triples, n, k=1) -> GraphStatistics:
    return GraphStatistics(
        TripleSet(np.asarray(triples, dtype=np.int64), n, k), backend="sparse"
    )


@pytest.fixture()
def skewed_stats() -> GraphStatistics:
    # Subject 0 appears 8×, subject 1 twice, subject 2 once.
    triples = [[0, 0, i] for i in range(3, 11)] + [[1, 0, 3], [1, 0, 4], [2, 0, 3]]
    return stats_for(triples, 12)


class TestTemperedFrequency:
    def test_alpha_one_equals_entity_frequency(self, skewed_stats):
        tempered = TemperedFrequency(alpha=1.0)
        plain = EntityFrequency()
        tempered.prepare(skewed_stats)
        plain.prepare(skewed_stats)
        for side in (SUBJECT, OBJECT):
            pool_t, probs_t = tempered.distribution(side)
            pool_p, probs_p = plain.distribution(side)
            np.testing.assert_array_equal(pool_t, pool_p)
            np.testing.assert_allclose(probs_t, probs_p)

    def test_alpha_zero_is_uniform_over_pool(self, skewed_stats):
        tempered = TemperedFrequency(alpha=0.0)
        tempered.prepare(skewed_stats)
        _, probs = tempered.distribution(SUBJECT)
        np.testing.assert_allclose(probs, probs[0])

    def test_negative_alpha_inverts_popularity(self, skewed_stats):
        tempered = TemperedFrequency(alpha=-1.0)
        tempered.prepare(skewed_stats)
        pool, probs = tempered.distribution(SUBJECT)
        by_entity = dict(zip(pool.tolist(), probs.tolist()))
        assert by_entity[2] > by_entity[1] > by_entity[0]

    def test_registered_default(self):
        strategy = create_strategy("tempered_frequency")
        assert isinstance(strategy, TemperedFrequency)
        assert strategy.alpha == 0.5


class TestInverseFrequency:
    def test_registered(self):
        assert isinstance(create_strategy("inverse_frequency"), InverseFrequency)

    def test_prefers_rare_entities(self, skewed_stats):
        strategy = create_strategy("inverse_frequency")
        strategy.prepare(skewed_stats)
        pool, probs = strategy.distribution(SUBJECT)
        by_entity = dict(zip(pool.tolist(), probs.tolist()))
        assert by_entity[2] == max(by_entity.values())


class TestMixture:
    def test_weights_validated(self):
        with pytest.raises(ValueError):
            MixtureStrategy([UniformRandom()], [0.5, 0.5])
        with pytest.raises(ValueError):
            MixtureStrategy([], [])
        with pytest.raises(ValueError):
            MixtureStrategy([UniformRandom()], [0.0])

    def test_mixture_is_convex_combination(self, skewed_stats):
        ef = EntityFrequency()
        ur = UniformRandom()
        mix = MixtureStrategy([EntityFrequency(), UniformRandom()], [0.5, 0.5])
        for strategy in (ef, ur, mix):
            strategy.prepare(skewed_stats)
        pool_m, probs_m = mix.distribution(SUBJECT)
        expected = np.zeros(12)
        for strategy in (ef, ur):
            pool, probs = strategy.distribution(SUBJECT)
            expected[pool] += 0.5 * probs
        np.testing.assert_allclose(probs_m, expected[pool_m])

    def test_name_reflects_components(self):
        mix = MixtureStrategy([EntityFrequency(), UniformRandom()], [1, 1])
        assert "entity_frequency" in mix.name
        assert "uniform_random" in mix.name

    def test_distribution_sums_to_one(self, skewed_stats):
        mix = MixtureStrategy(
            [EntityFrequency(), UniformRandom(), InverseFrequency()], [2, 1, 1]
        )
        mix.prepare(skewed_stats)
        for side in (SUBJECT, OBJECT):
            _, probs = mix.distribution(side)
            assert probs.sum() == pytest.approx(1.0)


class TestPageRank:
    def test_empty_graph_has_an_empty_distribution(self):
        import scipy.sparse as sp

        assert pagerank(sp.csr_matrix((0, 0))).shape == (0,)

    def test_matches_networkx(self, small_graph):
        stats = GraphStatistics(small_graph.train, backend="sparse")
        mine = pagerank(stats.adjacency, damping=0.85)
        reference = nx.pagerank(stats.nx_graph, alpha=0.85, tol=1e-12)
        ref_arr = np.asarray([reference[i] for i in range(small_graph.num_entities)])
        np.testing.assert_allclose(mine, ref_arr, atol=1e-6)

    def test_sums_to_one(self, triangle_triples):
        ranks = pagerank(GraphStatistics(triangle_triples).adjacency)
        assert ranks.sum() == pytest.approx(1.0)

    def test_symmetric_graph_uniform(self, triangle_triples):
        ranks = pagerank(GraphStatistics(triangle_triples).adjacency)
        np.testing.assert_allclose(ranks, 1 / 3)

    def test_hub_ranks_highest(self, star_triples):
        ranks = pagerank(GraphStatistics(star_triples).adjacency)
        assert ranks[0] == max(ranks)

    def test_invalid_damping(self, triangle_triples):
        with pytest.raises(ValueError):
            pagerank(GraphStatistics(triangle_triples).adjacency, damping=1.0)

    def test_strategy_registered(self, skewed_stats):
        strategy = create_strategy("pagerank")
        assert isinstance(strategy, PageRankStrategy)
        strategy.prepare(skewed_stats)
        pool, probs = strategy.distribution(SUBJECT)
        assert probs.sum() == pytest.approx(1.0)


class TestLongTailCoverage:
    def test_known_value(self):
        degree = np.asarray([10, 10, 10, 1, 1, 1])
        facts = np.asarray([[0, 0, 1], [0, 0, 3], [4, 0, 5]])
        # Threshold at median of positive degrees: tail = {3, 4, 5}.
        coverage = long_tail_coverage(facts, degree, quantile=0.5)
        assert coverage == pytest.approx(2 / 3)

    def test_empty_facts(self):
        assert long_tail_coverage(np.zeros((0, 3)), np.asarray([1, 2])) == 0.0

    def test_no_connected_entities_means_no_tail(self):
        facts = np.asarray([[0, 0, 1]])
        assert long_tail_coverage(facts, np.asarray([0, 0, 0])) == 0.0

    def test_invalid_quantile(self):
        with pytest.raises(ValueError):
            long_tail_coverage(np.asarray([[0, 0, 1]]), np.asarray([1, 1]), quantile=0.0)

    def test_exploration_beats_exploitation_on_tail(
        self, trained_distmult, tiny_graph
    ):
        """InverseFrequency reaches more long-tail entities than EF."""
        from repro.discovery import discover_facts

        stats = GraphStatistics(tiny_graph.train)
        results = {}
        for name in ("entity_frequency", "inverse_frequency"):
            result = discover_facts(
                trained_distmult, tiny_graph, strategy=name,
                top_n=tiny_graph.num_entities, max_candidates=200, seed=0,
                stats=stats,
            )
            results[name] = long_tail_coverage(result.facts, stats.degree)
        assert results["inverse_frequency"] >= results["entity_frequency"]
