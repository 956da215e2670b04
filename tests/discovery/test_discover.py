"""Tests for Algorithm 1 (discover_facts): pseudocode invariants."""

from __future__ import annotations

import numpy as np
import pytest

from repro.discovery import (
    MAX_GENERATION_ITERATIONS,
    create_strategy,
    discover_facts,
    theoretical_mrr_floor,
)
from repro.kg import GraphStatistics
from repro.obs import MetricsRegistry, use_registry
from repro.resilience import Deadline, DeadlineExceededError


def _rows(facts: np.ndarray) -> set[tuple[int, int, int]]:
    return {tuple(int(x) for x in row) for row in facts}


class _TickingClock:
    """A clock that advances one second per reading."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


@pytest.fixture(scope="module")
def discovery(request):
    return None


class TestInvariants:
    @pytest.fixture(scope="class")
    def result(self, trained_distmult, tiny_graph):
        return discover_facts(
            trained_distmult,
            tiny_graph,
            strategy="entity_frequency",
            top_n=15,
            max_candidates=100,
            seed=0,
        )

    def test_no_fact_is_a_training_triple(self, result, tiny_graph):
        """Line 12: candidates already in G are filtered out."""
        if result.num_facts:
            assert not tiny_graph.train.contains(result.facts).any()

    def test_all_ranks_within_top_n(self, result):
        """Line 15: candidates ranked worse than top_n are dropped."""
        assert (result.ranks <= 15).all()

    def test_ranks_at_least_one(self, result):
        assert (result.ranks >= 1).all()

    def test_facts_and_ranks_aligned(self, result):
        assert len(result.facts) == len(result.ranks)

    def test_no_duplicate_facts(self, result, tiny_graph):
        from repro.kg import encode_keys

        keys = encode_keys(
            result.facts, tiny_graph.num_entities, tiny_graph.num_relations
        )
        assert len(np.unique(keys)) == len(keys)

    def test_no_self_loops(self, result):
        assert (result.facts[:, 0] != result.facts[:, 2]).all()

    def test_mrr_above_theoretical_floor(self, result):
        if result.num_facts:
            assert result.mrr() >= theoretical_mrr_floor(15)

    def test_per_relation_counts_sum_to_total(self, result):
        assert sum(result.per_relation.values()) == result.num_facts

    def test_candidate_budget_respected(self, result, tiny_graph):
        assert result.candidates_generated <= 100 * tiny_graph.num_relations

    def test_runtime_breakdown_positive(self, result):
        assert result.runtime_seconds > 0
        assert result.generation_seconds >= 0
        assert result.ranking_seconds >= 0
        assert result.weight_seconds >= 0

    def test_summary_keys(self, result):
        summary = result.summary()
        for key in ("strategy", "facts_count", "mrr", "runtime_seconds",
                    "efficiency_facts_per_hour"):
            assert key in summary
        # Retired aliases no longer appear in the payload.
        assert "num_facts" not in summary

    def test_summary_includes_ranking_engine_counters(self, result):
        summary = result.summary()
        for key in ("unique_queries_count", "rows_scored_count",
                    "rows_reused_count", "cache_hits_count",
                    "score_seconds", "filter_seconds"):
            assert key in summary
        assert summary["rows_scored_count"] <= summary["unique_queries_count"]
        assert summary["rows_scored_count"] < result.candidates_generated

    def test_top_facts_sorted(self, result):
        top = result.top_facts(limit=10)
        assert len(top) <= 10
        sorted_ranks = np.sort(result.ranks)[: len(top)]
        # Ranks of top facts equal the smallest ranks overall.
        recovered = []
        order = np.argsort(result.ranks, kind="stable")[: len(top)]
        np.testing.assert_array_equal(result.facts[order], top)
        np.testing.assert_array_equal(result.ranks[order], sorted_ranks)

    def test_labelled_facts(self, result, tiny_graph):
        labelled = result.labelled_facts(tiny_graph, limit=5)
        assert len(labelled) <= 5
        for s, r, o, rank in labelled:
            assert s.startswith("e_") and o.startswith("e_")
            assert r.startswith("r_")
            assert rank >= 1.0
        ranks = [row[3] for row in labelled]
        assert ranks == sorted(ranks)

    def test_save_tsv(self, result, tiny_graph, tmp_path):
        path = tmp_path / "facts.tsv"
        result.save_tsv(path, tiny_graph)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == result.num_facts
        assert all(len(line.split("\t")) == 4 for line in lines)


class TestDeterminism:
    def test_same_seed_same_facts(self, trained_distmult, tiny_graph):
        kwargs = dict(strategy="graph_degree", top_n=20, max_candidates=64)
        a = discover_facts(trained_distmult, tiny_graph, seed=5, **kwargs)
        b = discover_facts(trained_distmult, tiny_graph, seed=5, **kwargs)
        np.testing.assert_array_equal(a.facts, b.facts)
        np.testing.assert_array_equal(a.ranks, b.ranks)

    def test_different_seeds_generally_differ(self, trained_distmult, tiny_graph):
        kwargs = dict(strategy="uniform_random", top_n=20, max_candidates=64)
        a = discover_facts(trained_distmult, tiny_graph, seed=1, **kwargs)
        b = discover_facts(trained_distmult, tiny_graph, seed=2, **kwargs)
        assert a.facts.shape != b.facts.shape or not np.array_equal(a.facts, b.facts)


    def test_relation_order_does_not_change_results(
        self, trained_distmult, tiny_graph
    ):
        """Every relation draws from spawn_stream(seed, relation), so the
        order relations run in cannot move any of them."""
        kwargs = dict(strategy="uniform_random", top_n=15, max_candidates=36, seed=9)
        forward = discover_facts(
            trained_distmult, tiny_graph, relations=[1, 3], **kwargs
        )
        backward = discover_facts(
            trained_distmult, tiny_graph, relations=[3, 1], **kwargs
        )
        assert forward.per_relation == backward.per_relation
        assert _rows(forward.facts) == _rows(backward.facts)
        assert sorted(forward.ranks) == sorted(backward.ranks)

    def test_relation_subset_matches_full_run(self, trained_distmult, tiny_graph):
        kwargs = dict(strategy="entity_frequency", top_n=20, max_candidates=50, seed=3)
        full = discover_facts(trained_distmult, tiny_graph, **kwargs)
        subset = discover_facts(
            trained_distmult, tiny_graph, relations=[1, 3], **kwargs
        )
        keep = np.isin(full.facts[:, 1], [1, 3])
        np.testing.assert_array_equal(subset.facts, full.facts[keep])
        np.testing.assert_array_equal(subset.ranks, full.ranks[keep])
        assert subset.per_relation == {
            r: full.per_relation[r] for r in (1, 3)
        }


class TestDeadline:
    KWARGS = dict(strategy="entity_frequency", top_n=20, max_candidates=50, seed=3)

    def test_expired_deadline_raises_before_the_first_relation(
        self, trained_distmult, tiny_graph
    ):
        expired = Deadline(at=0.0, seconds=1.0, clock=lambda: 5.0)
        registry = MetricsRegistry()
        with use_registry(registry):
            with pytest.raises(
                DeadlineExceededError, match="discover_facts:relation/"
            ):
                discover_facts(
                    trained_distmult, tiny_graph, deadline=expired, **self.KWARGS
                )
        assert "discover.relations_count" not in registry.snapshot()["counters"]

    def test_deadline_is_checked_between_relations(
        self, trained_distmult, tiny_graph
    ):
        """A relation in progress finishes; the next one does not start."""
        clock = _TickingClock()
        deadline = Deadline.after(2.5, clock=clock)  # reads 1; expires at 3.5
        registry = MetricsRegistry()
        with use_registry(registry):
            with pytest.raises(DeadlineExceededError, match="relation/2"):
                discover_facts(
                    trained_distmult,
                    tiny_graph,
                    relations=[0, 1, 2, 3],
                    deadline=deadline,
                    **self.KWARGS,
                )
        assert registry.snapshot()["counters"]["discover.relations_count"] == 2

    def test_unexpired_deadline_leaves_results_unchanged(
        self, trained_distmult, tiny_graph
    ):
        plain = discover_facts(trained_distmult, tiny_graph, **self.KWARGS)
        bounded = discover_facts(
            trained_distmult,
            tiny_graph,
            deadline=Deadline.after(600.0),
            **self.KWARGS,
        )
        np.testing.assert_array_equal(bounded.facts, plain.facts)
        np.testing.assert_array_equal(bounded.ranks, plain.ranks)


class TestParameters:
    def test_invalid_top_n(self, trained_distmult, tiny_graph):
        with pytest.raises(ValueError):
            discover_facts(trained_distmult, tiny_graph, top_n=0)

    def test_invalid_max_candidates(self, trained_distmult, tiny_graph):
        with pytest.raises(ValueError):
            discover_facts(trained_distmult, tiny_graph, max_candidates=0)

    def test_relation_subset(self, trained_distmult, tiny_graph):
        result = discover_facts(
            trained_distmult, tiny_graph, relations=[0], top_n=20,
            max_candidates=50, seed=0,
        )
        if result.num_facts:
            assert set(result.facts[:, 1]) == {0}
        assert set(result.per_relation) == {0}

    def test_strategy_instance_accepted(self, trained_distmult, tiny_graph):
        strategy = create_strategy("entity_frequency")
        result = discover_facts(
            trained_distmult, tiny_graph, strategy=strategy, top_n=10,
            max_candidates=36, seed=0,
        )
        assert result.strategy == "entity_frequency"

    def test_shared_stats_avoid_weight_cost(self, trained_distmult, tiny_graph):
        stats = GraphStatistics(tiny_graph.train)
        stats.triangles  # pre-warm
        result = discover_facts(
            trained_distmult, tiny_graph, strategy="cluster_triangles",
            top_n=10, max_candidates=36, seed=0, stats=stats,
        )
        fresh = discover_facts(
            trained_distmult, tiny_graph, strategy="cluster_triangles",
            top_n=10, max_candidates=36, seed=0,
        )
        assert result.weight_seconds <= fresh.weight_seconds

    def test_higher_top_n_yields_superset_count(self, trained_distmult, tiny_graph):
        """§4.3: increasing top_n yields more facts (same candidates)."""
        low = discover_facts(
            trained_distmult, tiny_graph, strategy="entity_frequency",
            top_n=5, max_candidates=64, seed=0,
        )
        high = discover_facts(
            trained_distmult, tiny_graph, strategy="entity_frequency",
            top_n=30, max_candidates=64, seed=0,
        )
        assert high.num_facts >= low.num_facts

    def test_higher_top_n_lowers_mrr(self, trained_distmult, tiny_graph):
        """§4.3: quality deteriorates as top_n grows (when new facts appear)."""
        low = discover_facts(
            trained_distmult, tiny_graph, strategy="entity_frequency",
            top_n=2, max_candidates=100, seed=0,
        )
        high = discover_facts(
            trained_distmult, tiny_graph, strategy="entity_frequency",
            top_n=38, max_candidates=100, seed=0,
        )
        if high.num_facts > low.num_facts > 0:
            assert high.mrr() <= low.mrr()

    def test_generation_iteration_cap_is_five(self):
        assert MAX_GENERATION_ITERATIONS == 5

    def test_sample_size_formula(self, trained_distmult, tiny_graph):
        """Line 4: sample_size = √max_candidates + 10 caps the mesh size.

        With max_candidates = 25 the mesh is at most 15×15 = 225 per
        iteration, so ≤ 5 · 225 candidates could ever be generated, but
        the budget truncates each relation to 25.
        """
        result = discover_facts(
            trained_distmult, tiny_graph, strategy="uniform_random",
            top_n=tiny_graph.num_entities, max_candidates=25, seed=0,
        )
        assert all(
            count <= 25 for count in np.bincount(result.facts[:, 1])
        ) if result.num_facts else True


class TestRuleFilteredDiscovery:
    def test_discovered_facts_respect_rules(self, trained_distmult, tiny_graph):
        from repro.discovery import RuleFilter

        rules = RuleFilter(tiny_graph.train)
        result = discover_facts(
            trained_distmult, tiny_graph, strategy="entity_frequency",
            top_n=tiny_graph.num_entities, max_candidates=100, seed=0,
            rule_filter=rules,
        )
        if result.num_facts:
            assert rules.accept_mask(result.facts).all()

    def test_rules_never_add_candidates(self, trained_distmult, tiny_graph):
        from repro.discovery import RuleFilter

        kwargs = dict(
            strategy="entity_frequency", top_n=20, max_candidates=100, seed=0,
        )
        plain = discover_facts(trained_distmult, tiny_graph, **kwargs)
        pruned = discover_facts(
            trained_distmult, tiny_graph,
            rule_filter=RuleFilter(tiny_graph.train), **kwargs,
        )
        assert pruned.candidates_generated <= plain.candidates_generated


class TestRankingEngineWiring:
    def test_engine_config_does_not_change_results(
        self, trained_distmult, tiny_graph
    ):
        """Cache and thread-pool settings are pure optimisations: same
        seed ⇒ same facts and ranks regardless of engine configuration."""
        from repro.kge import RankingEngine

        kwargs = dict(
            strategy="entity_frequency", top_n=15, max_candidates=100, seed=0
        )
        plain = discover_facts(trained_distmult, tiny_graph, **kwargs)
        cached = discover_facts(
            trained_distmult, tiny_graph, cache_size=64, **kwargs
        )
        threaded = discover_facts(
            trained_distmult, tiny_graph, workers=4, **kwargs
        )
        shared = discover_facts(
            trained_distmult,
            tiny_graph,
            engine=RankingEngine(cache_size=32, workers=2),
            **kwargs,
        )
        for other in (cached, threaded, shared):
            np.testing.assert_array_equal(plain.facts, other.facts)
            np.testing.assert_array_equal(plain.ranks, other.ranks)

    def test_shared_engine_reports_per_run_deltas(
        self, trained_distmult, tiny_graph
    ):
        from repro.kge import RankingEngine

        engine = RankingEngine(cache_size=64)
        kwargs = dict(
            strategy="entity_frequency", top_n=15, max_candidates=100, seed=0
        )
        first = discover_facts(trained_distmult, tiny_graph, engine=engine, **kwargs)
        second = discover_facts(trained_distmult, tiny_graph, engine=engine, **kwargs)
        # Counters in each result cover only that run, not the engine's lifetime.
        assert first.ranking_stats["candidates_ranked"] == first.candidates_generated
        assert second.ranking_stats["candidates_ranked"] == second.candidates_generated
        # The second identical run is served from the shared score cache.
        assert second.ranking_stats["cache_hits"] > 0
        assert second.ranking_stats["rows_scored"] < first.ranking_stats["rows_scored"]


class TestEdgeCases:
    def test_empty_relation_list(self, trained_distmult, tiny_graph):
        result = discover_facts(
            trained_distmult, tiny_graph, relations=[], top_n=10,
            max_candidates=25, seed=0,
        )
        assert result.num_facts == 0
        assert result.facts.shape == (0, 3)

    def test_top_n_equal_num_entities_keeps_everything(
        self, trained_distmult, tiny_graph
    ):
        result = discover_facts(
            trained_distmult, tiny_graph, strategy="uniform_random",
            top_n=tiny_graph.num_entities, max_candidates=36, seed=0,
        )
        # Every generated candidate must pass the rank filter.
        assert result.num_facts == result.candidates_generated

    def test_efficiency_zero_when_no_facts(self, trained_distmult, tiny_graph):
        result = discover_facts(
            trained_distmult, tiny_graph, relations=[], top_n=10,
            max_candidates=25,
        )
        assert result.efficiency_facts_per_hour() == 0.0
        assert result.mrr() == 0.0


def test_summary_flattens_the_trace_when_observed(trained_distmult, tiny_graph):
    with use_registry(MetricsRegistry()):
        result = discover_facts(
            trained_distmult, tiny_graph, top_n=10, max_candidates=25, seed=0
        )
    summary = result.summary()
    for path, node in result.trace.items():
        assert summary[f"span.{path}.wall_seconds"] == node["wall_seconds"]
    assert "span.discover/discover.weights.wall_seconds" in summary
