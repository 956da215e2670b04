"""Public API surface: keyword-only configs, __all__ integrity."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro
from repro.discovery import DiscoveryConfig
from repro.kge import TrainConfig


class TestTrainConfig:
    def test_positional_construction_rejected(self):
        with pytest.raises(TypeError):
            TrainConfig("negative_sampling")

    def test_round_trips_through_dict(self):
        config = TrainConfig(epochs=7, lr=0.01, job="kvsall")
        clone = TrainConfig.from_dict(config.to_dict())
        assert clone == config

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown TrainConfig keys.*bogus"):
            TrainConfig.from_dict({"epochs": 3, "bogus": 1})


class TestDiscoveryConfig:
    def test_positional_construction_rejected(self):
        with pytest.raises(TypeError):
            DiscoveryConfig("entity_frequency")

    def test_round_trips_through_dict(self):
        config = DiscoveryConfig(strategy="uniform", top_n=10, seed=4)
        clone = DiscoveryConfig.from_dict(config.to_dict())
        assert clone == config

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown DiscoveryConfig keys"):
            DiscoveryConfig.from_dict({"strategy": "uniform", "nope": 1})
        # Configs saved with the removed ``workers`` and ``cache_size``
        # knobs fail loudly.
        with pytest.raises(ValueError, match="unknown DiscoveryConfig keys.*workers"):
            DiscoveryConfig.from_dict({"strategy": "uniform", "workers": 2})
        with pytest.raises(
            ValueError, match="unknown DiscoveryConfig keys.*cache_size"
        ):
            DiscoveryConfig.from_dict({"strategy": "uniform", "cache_size": 128})
        with pytest.raises(TypeError, match="cache_size"):
            DiscoveryConfig(cache_size=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            DiscoveryConfig(top_n=0)
        with pytest.raises(ValueError, match="max_candidates"):
            DiscoveryConfig(max_candidates=0)

    def test_with_returns_updated_copy(self):
        base = DiscoveryConfig()
        changed = base.with_(top_n=9)
        assert changed.top_n == 9
        assert base.top_n == 500

    def test_config_object_drives_discover_facts(self, trained_distmult, tiny_graph):
        from repro.discovery import discover_facts

        config = DiscoveryConfig(top_n=20, max_candidates=64, seed=0)
        from_config = discover_facts(trained_distmult, tiny_graph, config=config)
        from_kwargs = discover_facts(
            trained_distmult, tiny_graph, top_n=20, max_candidates=64, seed=0
        )
        assert from_config.num_facts == from_kwargs.num_facts
        assert from_config.strategy == from_kwargs.strategy


def _modules_with_all() -> list[str]:
    """``repro`` and every submodule that declares ``__all__``."""
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.rsplit(".", 1)[-1] == "__main__":
            continue  # importing an entry point would run its CLI
        if hasattr(importlib.import_module(info.name), "__all__"):
            names.append(info.name)
    return names


class TestPublicApi:
    @pytest.mark.parametrize("module_name", _modules_with_all())
    def test_every_all_name_is_bound(self, module_name):
        module = importlib.import_module(module_name)
        exported = list(module.__all__)
        assert all(isinstance(name, str) for name in exported)
        assert len(set(exported)) == len(exported), "duplicate __all__ entry"
        unbound = [name for name in exported if not hasattr(module, name)]
        assert unbound == [], f"{module_name}.__all__ names unbound {unbound}"

    def test_core_workflow_names_exported(self):
        expected = {
            "DiscoveryConfig",
            "TrainConfig",
            "ModelConfig",
            "discover_facts",
            "train_model",
            "compute_ranks",
            "MetricsRegistry",
            "span",
            "get_registry",
            "use_registry",
            "enable_observability",
            "disable_observability",
            "write_snapshot",
        }
        assert expected <= set(repro.__all__)

    def test_unknown_kge_attribute_raises(self):
        import repro.kge

        with pytest.raises(AttributeError):
            repro.kge.definitely_not_a_thing
