"""Tests for the experiment runner and its model cache."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.discovery import DiscoveryResult
from repro.experiments import (
    PAPER_DATASETS,
    PAPER_MODELS,
    PAPER_STRATEGIES,
    MatrixRow,
    clear_model_cache,
    default_model_config,
    default_train_config,
    get_trained_model,
    run_matrix,
)
from repro.kg import load_dataset
from repro.kge import create_model, load_model, save_model
from repro.obs import MetricsRegistry, use_registry


class TestConstants:
    def test_paper_models(self):
        assert set(PAPER_MODELS) == {"complex", "conve", "distmult", "rescal", "transe"}

    def test_paper_strategies_exclude_squares(self):
        assert "cluster_squares" not in PAPER_STRATEGIES
        assert len(PAPER_STRATEGIES) == 5

    def test_paper_datasets(self):
        assert len(PAPER_DATASETS) == 4


class TestDefaults:
    def test_every_paper_model_has_defaults(self):
        for name in PAPER_MODELS:
            assert default_model_config(name).name == name
            default_train_config(name)

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            default_model_config("gnn")

    def test_unknown_model_has_no_train_config(self):
        with pytest.raises(KeyError, match="gnn"):
            default_train_config("gnn")


class TestModelCache:
    def test_in_process_cache_returns_same_object(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_MODEL_CACHE", str(tmp_path))
        clear_model_cache()
        a = get_trained_model("wn18rr-like", "distmult")
        b = get_trained_model("wn18rr-like", "distmult")
        assert a is b

    def test_disk_cache_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_MODEL_CACHE", str(tmp_path))
        clear_model_cache()
        a = get_trained_model("wn18rr-like", "distmult")
        clear_model_cache()  # drop in-process entry; force disk load
        b = get_trained_model("wn18rr-like", "distmult")
        assert a is not b
        np.testing.assert_array_equal(a.entity_matrix(), b.entity_matrix())

    def test_stale_disk_cache_recovers(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_MODEL_CACHE", str(tmp_path))
        clear_model_cache()
        get_trained_model("wn18rr-like", "distmult")
        # Corrupt the cache with wrong keys.
        path = tmp_path / "wn18rr-like__distmult.npz"
        np.savez(path, bogus=np.zeros(3))
        clear_model_cache()
        model = get_trained_model("wn18rr-like", "distmult")
        assert model.entity_matrix().shape[0] > 0

    def test_corrupt_disk_cache_recovers(self, tmp_path, monkeypatch):
        """A truncated .npz (not a valid zip) triggers retraining and is
        rewritten, not propagated as BadZipFile."""
        monkeypatch.setenv("REPRO_MODEL_CACHE", str(tmp_path))
        clear_model_cache()
        a = get_trained_model("wn18rr-like", "distmult")
        path = tmp_path / "wn18rr-like__distmult.npz"
        path.write_bytes(path.read_bytes()[:100])
        clear_model_cache()
        b = get_trained_model("wn18rr-like", "distmult")
        np.testing.assert_array_equal(a.entity_matrix(), b.entity_matrix())
        # The rewritten cache file is loadable again.
        np.load(path).close()

    def test_trained_model_is_in_eval_mode(self, tmp_path, monkeypatch):
        """Both the retrain and the cache-load paths return eval()-mode
        models — batched ConvE scoring depends on it (batch norm)."""
        monkeypatch.setenv("REPRO_MODEL_CACHE", str(tmp_path))
        clear_model_cache()
        fresh = get_trained_model("wn18rr-like", "distmult")
        assert not fresh.training
        clear_model_cache()
        cached = get_trained_model("wn18rr-like", "distmult")
        assert not cached.training

    def test_cached_model_of_another_shape_is_retrained(
        self, tmp_path, monkeypatch
    ):
        """A readable archive whose shape no longer matches the tuned
        config (e.g. an older ``dim``) is replaced, not returned."""
        monkeypatch.setenv("REPRO_MODEL_CACHE", str(tmp_path))
        clear_model_cache()
        graph = load_dataset("wn18rr-like")
        tuned_dim = default_model_config("distmult").dim
        stale = create_model(
            "distmult",
            num_entities=graph.num_entities,
            num_relations=graph.num_relations,
            dim=tuned_dim // 2,
            seed=0,
        )
        path = tmp_path / "wn18rr-like__distmult.npz"
        save_model(stale, path)
        model = get_trained_model("wn18rr-like", "distmult")
        assert model.dim == tuned_dim
        assert load_model(path).dim == tuned_dim  # the cache was rewritten

    def test_corrupt_checkpoint_is_quarantined_and_retrained(
        self, tmp_path, monkeypatch
    ):
        """Acceptance: a corrupted cache checkpoint is detected, moved to a
        *.corrupt sibling, and the model is retrained — never loaded."""
        monkeypatch.setenv("REPRO_MODEL_CACHE", str(tmp_path))
        clear_model_cache()
        original = get_trained_model("wn18rr-like", "distmult")
        path = tmp_path / "wn18rr-like__distmult.npz"
        data = bytearray(path.read_bytes())
        middle = len(data) // 2
        for offset in range(middle, middle + 32):
            data[offset] ^= 0xFF
        path.write_bytes(bytes(data))

        clear_model_cache()
        retrained = get_trained_model("wn18rr-like", "distmult")
        quarantined = tmp_path / "wn18rr-like__distmult.npz.corrupt"
        assert quarantined.is_file()
        # The retrain reproduces the original run bit for bit.
        np.testing.assert_array_equal(
            original.entity_matrix(), retrained.entity_matrix()
        )
        # The rewritten cache is valid again and clear() removes quarantine.
        clear_model_cache()
        reloaded = get_trained_model("wn18rr-like", "distmult")
        np.testing.assert_array_equal(
            original.entity_matrix(), reloaded.entity_matrix()
        )
        clear_model_cache(disk=True)
        assert not quarantined.exists()


    @pytest.mark.parametrize("keep", ["half", "one byte"])
    def test_truncated_checkpoint_is_quarantined_and_retrained(
        self, tmp_path, monkeypatch, keep
    ):
        monkeypatch.setenv("REPRO_MODEL_CACHE", str(tmp_path))
        clear_model_cache()
        original = get_trained_model("wn18rr-like", "distmult")
        path = tmp_path / "wn18rr-like__distmult.npz"
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2] if keep == "half" else data[:1])

        clear_model_cache()
        retrained = get_trained_model("wn18rr-like", "distmult")
        assert (tmp_path / "wn18rr-like__distmult.npz.corrupt").is_file()
        np.testing.assert_array_equal(
            original.entity_matrix(), retrained.entity_matrix()
        )
        assert load_model(path).dim == original.dim  # the cache was rewritten
        clear_model_cache(disk=True)


class TestRunMatrix:
    @pytest.fixture(scope="class")
    def rows(self, tmp_path_factory):
        import os

        os.environ["REPRO_MODEL_CACHE"] = str(tmp_path_factory.mktemp("cache"))
        clear_model_cache()
        try:
            return run_matrix(
                datasets=("wn18rr-like",),
                models=("distmult",),
                strategies=("uniform_random", "entity_frequency"),
                top_n=50,
                max_candidates=100,
            )
        finally:
            os.environ.pop("REPRO_MODEL_CACHE", None)
            clear_model_cache()

    def test_row_count(self, rows):
        assert len(rows) == 2

    def test_rows_carry_metrics(self, rows):
        for row in rows:
            assert row.dataset == "wn18rr-like"
            assert row.model == "distmult"
            assert row.num_facts >= 0
            assert row.runtime_seconds > 0

    def test_strategy_labels(self, rows):
        assert {row.strategy for row in rows} == {
            "uniform_random", "entity_frequency",
        }


def _result(**overrides) -> DiscoveryResult:
    fields = dict(
        facts=np.asarray([[0, 1, 2], [3, 1, 4]]),
        ranks=np.asarray([1.0, 2.0]),
        strategy="graph_degree",
        top_n=10,
        max_candidates=50,
        candidates_generated=40,
        generation_seconds=0.5,
        ranking_seconds=1.0,
        weight_seconds=0.3,
    )
    fields.update(overrides)
    return DiscoveryResult(**fields)


class TestMatrixRow:
    def test_from_result_copies_the_discovery_metrics(self):
        result = _result()
        row = MatrixRow.from_result("ds", "transe", result)
        assert (row.dataset, row.model, row.strategy) == (
            "ds", "transe", "graph_degree",
        )
        assert row.num_facts == 2
        assert row.mrr == result.mrr() == 0.75
        assert row.runtime_seconds == result.runtime_seconds
        assert row.weight_seconds == 0.3
        assert row.efficiency_facts_per_hour == result.efficiency_facts_per_hour()
        assert row.trace == {}

    def test_json_round_trip_is_bit_exact(self):
        trace = {"matrix.cell": {"count": 1, "wall_seconds": 0.1, "cpu_seconds": 0.2}}
        row = MatrixRow.from_result(
            "ds", "transe", _result(generation_seconds=1 / 3), trace=trace
        )
        clone = MatrixRow(**json.loads(row.to_json()))
        # JSON spells every float by its repr, so equal texts mean
        # bit-equal fields.
        assert clone.to_json() == row.to_json()
        assert clone.runtime_seconds == row.runtime_seconds

    def test_summary_flattens_the_cell_trace(self):
        trace = {
            "matrix.cell": {"count": 1, "wall_seconds": 0.1, "cpu_seconds": 0.2},
            "matrix.cell/discover": {
                "count": 1, "wall_seconds": 0.05, "cpu_seconds": 0.05,
            },
        }
        traced = MatrixRow.from_result("ds", "m", _result(), trace=trace).summary()
        assert traced["span.matrix.cell.wall_seconds"] == 0.1
        assert traced["span.matrix.cell/discover.wall_seconds"] == 0.05
        plain = MatrixRow.from_result("ds", "m", _result()).summary()
        assert set(traced) - set(plain) == {
            "span.matrix.cell.wall_seconds",
            "span.matrix.cell/discover.wall_seconds",
        }


_CAMPAIGN = dict(
    datasets=("wn18rr-like",),
    models=("distmult",),
    strategies=("uniform_random", "entity_frequency"),
    top_n=50,
    max_candidates=100,
)


def _deterministic_fields(rows):
    """The deterministic comparison tuple (repr makes NaN comparable)."""
    return [
        (r.dataset, r.model, r.strategy, r.num_facts, repr(r.mrr)) for r in rows
    ]


@pytest.fixture(scope="class")
def class_model_cache(tmp_path_factory):
    """One on-disk model cache per test class: train once, reuse."""
    import os

    previous = os.environ.get("REPRO_MODEL_CACHE")
    os.environ["REPRO_MODEL_CACHE"] = str(tmp_path_factory.mktemp("cache"))
    clear_model_cache()
    yield
    if previous is None:
        os.environ.pop("REPRO_MODEL_CACHE", None)
    else:
        os.environ["REPRO_MODEL_CACHE"] = previous
    clear_model_cache()


@pytest.mark.usefixtures("class_model_cache")
class TestRunMatrixOptions:
    CAMPAIGN = dict(_CAMPAIGN, seed=0)

    def test_rows_carry_cell_traces_when_observed(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            rows = run_matrix(**self.CAMPAIGN)
        for row in rows:
            # Each row holds its own cell's spans only: one cell, one
            # discovery run.
            assert row.trace["matrix/matrix.cell"]["count"] == 1
            assert row.trace["matrix/matrix.cell/discover"]["count"] == 1
            summary = row.summary()
            assert (
                summary["span.matrix/matrix.cell.wall_seconds"]
                == row.trace["matrix/matrix.cell"]["wall_seconds"]
            )
        assert registry.snapshot()["counters"]["matrix.cells_count"] == 2
        # Unobserved runs stay trace-free.
        assert all(row.trace == {} for row in run_matrix(**self.CAMPAIGN))


@pytest.mark.usefixtures("class_model_cache")
class TestSerialPass:
    CAMPAIGN = dict(_CAMPAIGN, strategies=("uniform_random", "entity_frequency", "graph_degree"))

    def test_rows_follow_the_requested_strategy_order(self):
        forward = run_matrix(**self.CAMPAIGN)
        backward = run_matrix(
            **dict(self.CAMPAIGN, strategies=self.CAMPAIGN["strategies"][::-1])
        )
        assert [row.strategy for row in forward] == list(self.CAMPAIGN["strategies"])
        assert _deterministic_fields(backward) == _deterministic_fields(forward)[::-1]

    def test_rows_follow_the_requested_dataset_order(self, monkeypatch):
        import repro.experiments.runner as runner

        loaded = []
        real_load = runner.load_dataset

        def recording_load(name):
            loaded.append(name)
            return real_load(name)

        monkeypatch.setattr(runner, "load_dataset", recording_load)
        monkeypatch.setattr(
            runner, "get_trained_model", lambda dataset, model, graph: object()
        )
        monkeypatch.setattr(
            runner, "discover_facts", lambda model, graph, strategy, **_: _result(
                strategy=strategy
            )
        )
        rows = run_matrix(
            datasets=("wn18rr-like", "fb15k237-like"),
            models=("transe", "distmult"),
            strategies=("graph_degree",),
        )
        assert loaded == ["wn18rr-like", "fb15k237-like"]  # each loaded once
        assert [(row.dataset, row.model) for row in rows] == [
            ("wn18rr-like", "transe"), ("wn18rr-like", "distmult"),
            ("fb15k237-like", "transe"), ("fb15k237-like", "distmult"),
        ]

    def test_model_is_trained_once_for_all_its_strategies(self, monkeypatch):
        import repro.experiments.runner as runner

        clear_model_cache(disk=True)
        trainings = []
        real_train = runner.train_model

        def counting_train(model, graph, config):
            trainings.append(type(model).__name__)
            return real_train(model, graph, config)

        monkeypatch.setattr(runner, "train_model", counting_train)
        rows = run_matrix(**self.CAMPAIGN)
        assert len(rows) == 3
        assert trainings == ["DistMult"]

    def test_a_failing_cell_propagates_its_error(self, monkeypatch):
        import repro.experiments.runner as runner

        real_discover = runner.discover_facts
        calls = []

        def fail_second_cell(*args, **kwargs):
            calls.append(kwargs["strategy"])
            if len(calls) == 2:
                raise RuntimeError("cell exploded")
            return real_discover(*args, **kwargs)

        monkeypatch.setattr(runner, "discover_facts", fail_second_cell)
        with pytest.raises(RuntimeError, match="cell exploded"):
            run_matrix(**self.CAMPAIGN)
        assert calls == ["uniform_random", "entity_frequency"]  # no retry, no skip

    def test_rerun_after_a_failed_pass_matches_an_uninterrupted_one(
        self, monkeypatch
    ):
        import repro.experiments.runner as runner

        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        reference = _deterministic_fields(run_matrix(**self.CAMPAIGN))
        clear_model_cache()  # keep the disk cache, drop the in-process one
        with monkeypatch.context() as patch:
            patch.setattr(runner, "discover_facts", boom)
            with pytest.raises(RuntimeError, match="boom"):
                run_matrix(**self.CAMPAIGN)
        # The model trained before the failure stays cached on disk and
        # the next pass reproduces the uninterrupted rows bit for bit.
        assert load_model(runner._cache_dir() / "wn18rr-like__distmult.npz") is not None
        assert _deterministic_fields(run_matrix(**self.CAMPAIGN)) == reference
