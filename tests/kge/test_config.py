"""Config dataclass and grid-expansion tests."""

from __future__ import annotations

import pytest

from repro.kge import ModelConfig, TrainConfig, expand_grid


class TestModelConfig:
    def test_defaults(self):
        config = ModelConfig()
        assert config.name == "transe"
        assert config.options == {}

    def test_with_(self):
        config = ModelConfig("distmult", dim=64).with_(dim=128)
        assert config.dim == 128
        assert config.name == "distmult"

    def test_to_dict_roundtrip(self):
        config = ModelConfig("conve", dim=32, options={"num_filters": 8})
        data = config.to_dict()
        assert data["options"]["num_filters"] == 8
        assert ModelConfig(**data) == config

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ModelConfig().dim = 7


class TestTrainConfig:
    def test_to_dict(self):
        assert TrainConfig().to_dict()["job"] == "negative_sampling"

    def test_frozen(self):
        with pytest.raises(AttributeError):
            TrainConfig().lr = 1.0

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("loss", "self_adversarial", "loss"),
            ("loss", "Margin", "loss"),
            ("lr", 0.0, "lr"),
            ("lr", -0.05, "lr"),
            ("lr", float("nan"), "lr"),
            ("weight_decay", -1e-4, "weight_decay"),
            ("eval_every", -1, "eval_every"),
            ("early_stopping_patience", -1, "early_stopping_patience"),
        ],
    )
    def test_rejects_invalid_values(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("key", ["lr_decay", "adversarial_temperature"])
    def test_from_dict_rejects_retired_keys(self, key):
        data = {**TrainConfig().to_dict(), key: 0.5}
        with pytest.raises(ValueError, match=key):
            TrainConfig.from_dict(data)


class TestExpandGrid:
    def test_cartesian_product(self):
        grid = list(expand_grid({"a": [1, 2], "b": ["x", "y"]}))
        assert len(grid) == 4
        assert {"a": 1, "b": "x"} in grid
        assert {"a": 2, "b": "y"} in grid

    def test_slowest_first_order(self):
        grid = list(expand_grid({"a": [1, 2], "b": [10, 20]}))
        assert grid[0] == {"a": 1, "b": 10}
        assert grid[1] == {"a": 1, "b": 20}
        assert grid[2] == {"a": 2, "b": 10}

    def test_empty_space(self):
        assert list(expand_grid({})) == [{}]

    def test_single_param(self):
        assert list(expand_grid({"lr": [0.1]})) == [{"lr": 0.1}]
