"""Tests that the dataset replicas preserve the paper's shape orderings."""

from __future__ import annotations

import pytest

from repro.kg import (
    DATASET_PROFILES,
    PAPER_METADATA,
    GraphStatistics,
    available_datasets,
    load_dataset,
)


class TestRegistry:
    def test_four_datasets(self):
        assert available_datasets() == [
            "fb15k237-like",
            "wn18rr-like",
            "yago310-like",
            "codexl-like",
        ]

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            load_dataset("freebase-full")

    def test_cache_returns_same_object(self):
        assert load_dataset("wn18rr-like") is load_dataset("wn18rr-like")

    def test_no_cache_returns_equal_graph(self):
        cached = load_dataset("wn18rr-like")
        fresh = load_dataset("wn18rr-like", use_cache=False)
        assert fresh is not cached
        assert fresh.train == cached.train

    def test_profiles_link_to_paper_metadata(self):
        for profile in DATASET_PROFILES.values():
            assert profile.metadata["paper_dataset"] in PAPER_METADATA


class TestPaperMetadata:
    def test_table1_values(self):
        """Spot-check Table 1 of the paper."""
        fb = PAPER_METADATA["fb15k237"]
        assert (fb.training, fb.entities, fb.relations) == (272_115, 14_541, 237)
        wn = PAPER_METADATA["wn18rr"]
        assert (wn.entities, wn.relations) == (40_943, 11)
        yago = PAPER_METADATA["yago310"]
        assert yago.training == 1_079_040
        codex = PAPER_METADATA["codexl"]
        assert codex.relations == 69


class TestShapeFidelity:
    """The relative orderings every paper conclusion depends on."""

    @pytest.fixture(scope="class")
    def graphs(self):
        return {name: load_dataset(name) for name in available_datasets()}

    @pytest.fixture(scope="class")
    def clustering(self, graphs):
        return {
            name: GraphStatistics(g.train, backend="sparse").average_clustering
            for name, g in graphs.items()
        }

    def test_density_ratio_matches_paper(self, graphs):
        """Triples-per-entity within 25% of the original datasets."""
        for name, graph in graphs.items():
            paper = PAPER_METADATA[graph.metadata["paper_dataset"]]
            original = paper.training / paper.entities
            replica = len(graph.train) / graph.num_entities
            assert abs(replica - original) / original < 0.25, name

    def test_wn18rr_like_is_sparsest(self, clustering):
        wn = clustering["wn18rr-like"]
        assert all(wn < v for k, v in clustering.items() if k != "wn18rr-like")

    def test_fb15k237_like_is_densest(self, clustering):
        fb = clustering["fb15k237-like"]
        assert all(fb > v for k, v in clustering.items() if k != "fb15k237-like")

    def test_wn18rr_like_avg_relations_per_entity(self, graphs):
        """The paper infers ≈4.5 relations per entity for WN18RR; the
        replica keeps that figure low (sparse) relative to the others."""
        wn = graphs["wn18rr-like"].average_relations_per_entity()
        assert wn < 6.0
        assert wn < graphs["fb15k237-like"].average_relations_per_entity()

    def test_relation_count_ordering(self, graphs):
        """WN18RR has the fewest relations; FB15K-237 the most."""
        counts = {name: g.num_relations for name, g in graphs.items()}
        assert counts["wn18rr-like"] == min(counts.values())
        assert counts["fb15k237-like"] == max(counts.values())

    def test_yago_like_is_largest(self, graphs):
        sizes = {name: len(g.train) for name, g in graphs.items()}
        assert sizes["yago310-like"] == max(sizes.values())

    def test_wn18rr_like_matches_paper_relations_exactly(self, graphs):
        assert graphs["wn18rr-like"].num_relations == 11


class TestResolveDataset:
    """One resolution order for CLI and serving: registry name, KG store
    (``store:``-prefixed or bare), then a TSV dataset directory."""

    @pytest.fixture(scope="class")
    def store_dir(self, tmp_path_factory):
        from repro.kg import generate_kg_streaming, scale_profile

        directory = tmp_path_factory.mktemp("kg-store") / "store"
        generate_kg_streaming(
            scale_profile(DATASET_PROFILES["wn18rr-like"], 0.1), directory
        )
        return directory

    def test_registry_name_returns_the_cached_replica(self):
        from repro.kg import resolve_dataset

        assert resolve_dataset("wn18rr-like") is load_dataset("wn18rr-like")

    @pytest.mark.parametrize("prefix", ["store:", ""])
    def test_store_directory_with_or_without_prefix(self, store_dir, prefix):
        from repro.kg import load_kg_store, resolve_dataset

        graph = resolve_dataset(f"{prefix}{store_dir}")
        assert graph.name == "wn18rr-like-x0.1"
        assert graph.train == load_kg_store(store_dir).train

    def test_tsv_directory(self, tmp_path, tiny_graph):
        from repro.kg import resolve_dataset, save_dataset_dir

        save_dataset_dir(tiny_graph, tmp_path / "tiny")
        graph = resolve_dataset(str(tmp_path / "tiny"))
        assert graph.num_entities == tiny_graph.num_entities
        assert len(graph.train) == len(tiny_graph.train)

    def test_unknown_name_raises_key_error(self, tmp_path):
        from repro.kg import resolve_dataset

        with pytest.raises(KeyError, match="not a registry name"):
            resolve_dataset(str(tmp_path / "absent"))


class TestFullScaleStores:
    """Full-scale replicas live in KG stores: reopened when present,
    generated (once) when absent.  The generator is stubbed with a small
    store so no full-scale graph is built here."""

    NAME = "yago310-full"

    @pytest.fixture
    def fake_generator(self, monkeypatch):
        import repro.kg.datasets as datasets
        from repro.kg import generate_kg_streaming, scale_profile

        calls = []

        def small_store(profile, directory):
            calls.append((profile, directory))
            generate_kg_streaming(
                scale_profile(DATASET_PROFILES["wn18rr-like"], 0.05), directory
            )

        monkeypatch.setattr(datasets, "generate_kg_streaming", small_store)
        return calls

    def test_store_root_defaults_to_the_temp_dir(self, monkeypatch):
        import tempfile
        from pathlib import Path

        from repro.kg.datasets import _default_store_root

        monkeypatch.delenv("REPRO_STORE_ROOT", raising=False)
        assert _default_store_root() == Path(tempfile.gettempdir()) / "repro-kg-stores"

    def test_store_root_follows_the_environment(self, monkeypatch, tmp_path):
        from repro.kg.datasets import _default_store_root

        monkeypatch.setenv("REPRO_STORE_ROOT", str(tmp_path))
        assert _default_store_root() == tmp_path

    def test_missing_store_is_generated_once_then_reopened(
        self, fake_generator, monkeypatch, tmp_path
    ):
        from repro.kg import FULL_SCALE_PROFILES, load_full_dataset, resolve_dataset

        assert self.NAME in FULL_SCALE_PROFILES
        monkeypatch.setenv("REPRO_STORE_ROOT", str(tmp_path))
        first = load_full_dataset(self.NAME)
        assert fake_generator == [(FULL_SCALE_PROFILES[self.NAME], tmp_path / self.NAME)]
        again = resolve_dataset(self.NAME)  # registry spelling, same store
        assert len(fake_generator) == 1
        assert again.train == first.train

    def test_explicit_directory_wins_over_the_root(
        self, fake_generator, monkeypatch, tmp_path
    ):
        from repro.kg import load_full_dataset

        monkeypatch.setenv("REPRO_STORE_ROOT", str(tmp_path / "root"))
        graph = load_full_dataset(self.NAME, directory=tmp_path / "mine", mmap=False)
        assert [directory for _, directory in fake_generator] == [tmp_path / "mine"]
        assert not (tmp_path / "root").exists()
        assert len(graph.train) > 0
