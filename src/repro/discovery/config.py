"""Declarative configuration for :func:`~repro.discovery.discover_facts`.

Mirrors :class:`repro.kge.config.TrainConfig`: a frozen, keyword-only
dataclass with a lossless ``to_dict``/``from_dict`` round trip, so a
discovery run can be described in a config file and replayed exactly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from typing import Any

__all__ = ["DiscoveryConfig"]


@dataclass(frozen=True, kw_only=True)
class DiscoveryConfig:
    """One ``discover_facts`` run's hyperparameters.

    All fields are keyword-only, like :class:`~repro.kge.config.TrainConfig`.
    Passing a config to :func:`~repro.discovery.discover_facts` replaces the
    corresponding keyword arguments wholesale — the config is the single
    source of truth, never merged field-by-field with call-site defaults.
    """

    strategy: str = "entity_frequency"
    top_n: int = 500
    max_candidates: int = 500
    seed: int = 0
    drop_self_loops: bool = True

    def __post_init__(self) -> None:
        if self.top_n < 1:
            raise ValueError(f"top_n must be >= 1, got {self.top_n}")
        if self.max_candidates < 1:
            raise ValueError(
                f"max_candidates must be >= 1, got {self.max_candidates}"
            )

    def with_(self, **changes) -> "DiscoveryConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "DiscoveryConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Unknown keys raise :class:`ValueError` so stale serialized configs
        fail loudly instead of silently dropping settings.
        """
        known = {spec.name for spec in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown DiscoveryConfig keys: {sorted(unknown)}")
        return cls(**data)
