"""ModelRegistry: cataloguing, lazy loads, resolution, pin-safe eviction."""

from __future__ import annotations

import pytest

from repro.api.types import BadRequestError, ModelNotFoundError
from repro.kge import load_model


class TestCatalogue:
    def test_register_reads_header_only(self, make_registry, checkpoint_path):
        registry = make_registry()
        ref = registry.register("tiny", checkpoint_path)
        assert ref.dataset == "tiny"
        assert ref.model == "distmult"
        assert len(ref.digest) == 12
        assert registry.loaded_ids() == ()  # nothing loaded yet

    def test_register_is_idempotent(self, make_registry, checkpoint_path):
        registry = make_registry()
        first = registry.register("tiny", checkpoint_path)
        second = registry.register("tiny", checkpoint_path)
        assert first == second
        assert len(registry) == 1

    def test_iteration_yields_ids_in_registration_order(
        self, make_registry, alt_checkpoints
    ):
        registry = make_registry()
        refs = [registry.register("tiny", path) for path in alt_checkpoints]
        assert list(registry) == [ref.model_id for ref in refs]
        assert registry.loaded_ids() == ()  # iterating loads nothing

    def test_register_conflicting_path_is_an_error(
        self, make_registry, checkpoint_path, tmp_path
    ):
        registry = make_registry()
        registry.register("tiny", checkpoint_path)
        clone = tmp_path / "clone.npz"
        clone.write_bytes(checkpoint_path.read_bytes())
        with pytest.raises(ValueError, match="already registered"):
            registry.register("tiny", clone)

    def test_describe_flags_loaded_entries(self, make_registry, checkpoint_path):
        registry = make_registry()
        ref = registry.register("tiny", checkpoint_path)
        (info,) = registry.describe()
        assert not info.loaded
        assert info.dim == 16
        with registry.acquire(ref.model_id):
            pass
        (info,) = registry.describe()
        assert info.loaded

    def test_counters(self, make_registry, checkpoint_path):
        registry = make_registry()
        ref = registry.register("tiny", checkpoint_path)
        assert registry.counters() == {
            "models_count": 1, "loaded_count": 0, "pinned_count": 0,
        }
        with registry.acquire(ref.model_id):
            assert registry.counters()["pinned_count"] == 1
        assert registry.counters() == {
            "models_count": 1, "loaded_count": 1, "pinned_count": 0,
        }


class TestResolution:
    def test_digestless_and_prefix_ids_resolve(self, make_registry, checkpoint_path):
        registry = make_registry()
        ref = registry.register("tiny", checkpoint_path)
        for model_id in (
            ref.model_id,
            "tiny/distmult",
            f"tiny/distmult@{ref.digest[:4]}",
        ):
            with registry.acquire(model_id) as entry:
                assert entry.spec.ref == ref

    def test_unknown_model_raises_typed_404(self, make_registry, checkpoint_path):
        registry = make_registry()
        registry.register("tiny", checkpoint_path)
        with pytest.raises(ModelNotFoundError, match="no model"):
            registry.acquire("tiny/transe")

    def test_ambiguous_digestless_id_raises_400(
        self, make_registry, alt_checkpoints
    ):
        registry = make_registry()
        registry.register("tiny", alt_checkpoints[0])
        registry.register("tiny", alt_checkpoints[1])
        with pytest.raises(BadRequestError, match="ambiguous"):
            registry.acquire("tiny/distmult")


class TestWarmState:
    def test_repeat_acquire_reuses_the_entry(self, make_registry, checkpoint_path):
        registry = make_registry()
        ref = registry.register("tiny", checkpoint_path)
        with registry.acquire(ref.model_id) as first:
            pass
        with registry.acquire(ref.model_id) as second:
            pass
        assert first is second  # model, engine and caches stay warm

    def test_loaded_model_matches_checkpoint(
        self, make_registry, checkpoint_path, tiny_graph
    ):
        import numpy as np

        registry = make_registry()
        ref = registry.register("tiny", checkpoint_path)
        reference = load_model(checkpoint_path)
        with registry.acquire(ref.model_id) as entry:
            s = np.asarray([0, 1, 2])
            r = np.asarray([0, 1, 2])
            np.testing.assert_array_equal(
                entry.model.scores_sp(s, r), reference.scores_sp(s, r)
            )
            assert entry.graph is tiny_graph

    def test_graph_stats_computed_once(self, make_registry, checkpoint_path):
        registry = make_registry()
        ref = registry.register("tiny", checkpoint_path)
        with registry.acquire(ref.model_id) as entry:
            assert entry.graph_stats() is entry.graph_stats()


class TestEviction:
    def test_lru_evicts_cold_entries(self, make_registry, alt_checkpoints):
        registry = make_registry(capacity=2)
        refs = [registry.register("tiny", path) for path in alt_checkpoints]
        for ref in refs:
            with registry.acquire(ref.model_id):
                pass
        assert len(registry.loaded_ids()) == 2
        # The first registered model was least recently used.
        assert refs[0].model_id not in registry.loaded_ids()

    def test_pinned_entries_survive_capacity_pressure(
        self, make_registry, alt_checkpoints
    ):
        registry = make_registry(capacity=1)
        first, second = (
            registry.register("tiny", path) for path in alt_checkpoints[:2]
        )
        with registry.acquire(first.model_id) as held:
            with registry.acquire(second.model_id):
                # Both pinned: capacity overshoot is allowed, nothing dropped.
                assert set(registry.loaded_ids()) == {
                    first.model_id, second.model_id,
                }
            # Releasing the second lets eviction shrink back to capacity,
            # but never by dropping the still-pinned first entry.
            assert registry.loaded_ids() == (first.model_id,)
            assert held.pins == 1
        assert registry.counters()["pinned_count"] == 0

    def test_lru_order_refreshes_on_hit(self, make_registry, alt_checkpoints):
        registry = make_registry(capacity=2)
        refs = [registry.register("tiny", path) for path in alt_checkpoints]
        with registry.acquire(refs[0].model_id):
            pass
        with registry.acquire(refs[1].model_id):
            pass
        with registry.acquire(refs[0].model_id):  # refresh 0 → 1 is now LRU
            pass
        with registry.acquire(refs[2].model_id):
            pass
        assert refs[1].model_id not in registry.loaded_ids()
        assert refs[0].model_id in registry.loaded_ids()
