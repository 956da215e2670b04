"""Observability must not change results: bit-identical outputs either way,
and a registry shared by several discovery threads must stay consistent."""

from __future__ import annotations

import numpy as np
import pytest

from repro.discovery import discover_facts
from repro.kge import ModelConfig, TrainConfig, fit
from repro.kge.ranking import RankingEngine
from repro.obs import MetricsRegistry, use_registry

from ..helpers import run_in_threads


def _train(tiny_graph):
    return fit(
        tiny_graph,
        ModelConfig("distmult", dim=8, seed=3),
        TrainConfig(
            job="kvsall", loss="bce", epochs=4, batch_size=64, lr=0.05, seed=3
        ),
    )


class TestBitIdentical:
    def test_training_is_bitwise_identical_with_obs_enabled(self, tiny_graph):
        disabled = _train(tiny_graph)
        registry = MetricsRegistry()
        with use_registry(registry):
            enabled = _train(tiny_graph)
        assert disabled.losses == enabled.losses
        for name, array in disabled.model.state_dict().items():
            np.testing.assert_array_equal(array, enabled.model.state_dict()[name])
        # ... and the enabled run actually recorded its work.
        snapshot = registry.snapshot()
        assert snapshot["counters"]["train.epochs_count"] == 4
        assert "train" in snapshot["spans"]

    def test_discovery_is_bitwise_identical_with_obs_enabled(
        self, trained_distmult, tiny_graph
    ):
        kwargs = dict(strategy="entity_frequency", top_n=20, max_candidates=64, seed=0)
        disabled = discover_facts(trained_distmult, tiny_graph, **kwargs)
        registry = MetricsRegistry()
        with use_registry(registry):
            enabled = discover_facts(trained_distmult, tiny_graph, **kwargs)
        np.testing.assert_array_equal(disabled.facts, enabled.facts)
        np.testing.assert_array_equal(disabled.ranks, enabled.ranks)
        # The disabled run produces no trace; the enabled run does, and its
        # counters agree with the result object.
        assert disabled.trace == {}
        assert "discover" in enabled.trace
        counters = registry.snapshot()["counters"]
        assert counters["discover.facts_count"] == enabled.num_facts
        assert counters["discover.candidates_count"] == enabled.candidates_generated

    def test_timing_fields_populated_even_when_disabled(
        self, trained_distmult, tiny_graph
    ):
        result = discover_facts(
            trained_distmult, tiny_graph, top_n=20, max_candidates=64, seed=0
        )
        assert result.runtime_seconds > 0.0
        assert result.generation_seconds > 0.0
        assert result.ranking_seconds > 0.0


class TestSpanReconciliation:
    def test_child_span_walltime_within_parent(self, trained_distmult, tiny_graph):
        registry = MetricsRegistry()
        with use_registry(registry):
            discover_facts(
                trained_distmult, tiny_graph, top_n=20, max_candidates=64, seed=0
            )
        spans = registry.snapshot()["spans"]
        discover = spans["discover"]
        child_wall = sum(
            child["wall_seconds"] for child in discover["children"].values()
        )
        assert child_wall <= discover["wall_seconds"]
        rank = discover["children"]["rank"]
        rank_child_wall = sum(
            child["wall_seconds"] for child in rank["children"].values()
        )
        assert rank_child_wall <= rank["wall_seconds"]

    @pytest.mark.parametrize(
        "model, job, loss",
        [
            ("transe", "negative_sampling", "margin"),
            ("distmult", "kvsall", "bce"),
        ],
    )
    def test_every_training_batch_splits_into_four_phases(
        self, tiny_graph, model, job, loss
    ):
        registry = MetricsRegistry()
        with use_registry(registry):
            fit(
                tiny_graph,
                ModelConfig(model, dim=8, seed=3),
                TrainConfig(job=job, loss=loss, epochs=2, batch_size=64, seed=3),
            )
        snapshot = registry.snapshot()
        epoch = snapshot["spans"]["train"]["children"]["train.epoch"]
        batches = snapshot["counters"]["train.batches_count"]
        phases = ("train.sample", "train.forward", "train.backward", "train.step")
        assert set(phases) <= set(epoch["children"])
        for phase in phases:
            assert epoch["children"][phase]["count"] == batches
        child_wall = sum(
            child["wall_seconds"] for child in epoch["children"].values()
        )
        assert child_wall <= epoch["wall_seconds"]


class TestConcurrentRegistry:
    """Caller threads share one engine and one registry, as ``repro
    serve``'s worker threads do."""

    KWARGS = dict(top_n=20, max_candidates=64, seed=0)

    @pytest.mark.parametrize("threads", [1, 4])
    def test_threaded_ranking_shares_one_registry(
        self, trained_distmult, tiny_graph, threads
    ):
        registry = MetricsRegistry()
        engine = RankingEngine(chunk_size=16)
        with use_registry(registry):
            results = run_in_threads(
                threads,
                lambda: discover_facts(
                    trained_distmult, tiny_graph, engine=engine, **self.KWARGS
                ),
            )
        counters = registry.snapshot()["counters"]
        generated = sum(result.candidates_generated for result in results)
        assert counters["rank.candidates_ranked_count"] == generated
        assert (
            counters["rank.rows_scored_count"] + counters["rank.rows_reused_count"]
            == counters["rank.candidates_ranked_count"]
        )
        stats = engine.stats
        assert stats.candidates_ranked == generated
        assert stats.rows_scored + stats.rows_reused == stats.candidates_ranked

    def test_worker_results_identical_across_widths(
        self, trained_distmult, tiny_graph
    ):
        serial = discover_facts(trained_distmult, tiny_graph, **self.KWARGS)
        engine = RankingEngine(chunk_size=16, cache_size=64)
        registry = MetricsRegistry()
        with use_registry(registry):
            results = run_in_threads(
                4,
                lambda: discover_facts(
                    trained_distmult, tiny_graph, engine=engine, **self.KWARGS
                ),
            )
        for result in results:
            np.testing.assert_array_equal(result.facts, serial.facts)
            np.testing.assert_array_equal(result.ranks, serial.ranks)
