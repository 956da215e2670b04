"""Workflow (Figure 1 pipeline) tests."""

from __future__ import annotations

import pytest

from repro.experiments import FactDiscoveryWorkflow
from repro.kge import ModelConfig, TrainConfig


class TestWorkflow:
    @pytest.fixture(scope="class")
    def report(self):
        flow = FactDiscoveryWorkflow(
            dataset="wn18rr-like",
            model="distmult",
            strategy="entity_frequency",
            top_n=100,
            max_candidates=100,
            use_cached_model=False,
            model_config=ModelConfig("distmult", dim=16, seed=0),
            train_config=TrainConfig(
                job="kvsall", loss="bce", epochs=15, batch_size=128, lr=0.05,
                label_smoothing=0.1,
            ),
        )
        return flow.run()

    def test_report_fields(self, report):
        assert report.dataset == "wn18rr-like"
        assert report.model_name == "distmult"
        assert report.strategy == "entity_frequency"

    def test_link_prediction_metrics_present(self, report):
        assert 0.0 <= report.link_prediction.mrr <= 1.0

    def test_discovery_result_attached(self, report):
        assert report.discovery.num_facts >= 0
        assert (report.discovery.ranks <= 100).all()

    def test_summary_is_flat(self, report):
        summary = report.summary()
        assert summary["dataset"] == "wn18rr-like"
        assert "test_mrr" in summary
        assert "efficiency_facts_per_hour" in summary
        assert all(not isinstance(v, dict) for v in summary.values())

    def test_default_configs_resolved(self):
        flow = FactDiscoveryWorkflow(model="transe")
        assert flow.model_config.name == "transe"
        assert flow.train_config.job == "negative_sampling"

    def test_cached_model_run_uses_the_shared_trained_model(
        self, tmp_path, monkeypatch
    ):
        from repro.discovery import discover_facts
        from repro.experiments import clear_model_cache, get_trained_model
        from repro.kg import GraphStatistics, load_dataset

        monkeypatch.setenv("REPRO_MODEL_CACHE", str(tmp_path))
        clear_model_cache()
        try:
            report = FactDiscoveryWorkflow(
                dataset="wn18rr-like", model="distmult", top_n=50,
                max_candidates=100,
            ).run()
            model = get_trained_model("wn18rr-like", "distmult")
            graph = load_dataset("wn18rr-like")
            expected = discover_facts(
                model, graph, strategy="entity_frequency", top_n=50,
                max_candidates=100, stats=GraphStatistics(graph.train),
            )
        finally:
            clear_model_cache()
        assert (tmp_path / "wn18rr-like__distmult.npz").is_file()
        assert report.discovery.facts.tobytes() == expected.facts.tobytes()
        assert report.discovery.ranks.tobytes() == expected.ranks.tobytes()
