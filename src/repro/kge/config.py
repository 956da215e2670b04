"""Configuration objects and grid-search helpers.

In the spirit of LibKGE's yaml job definitions (which the paper singles
out as the reason for choosing that library), experiments are described by
small declarative configs that can be expanded into grids.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Iterator

__all__ = ["ModelConfig", "TrainConfig", "expand_grid"]


@dataclass(frozen=True)
class ModelConfig:
    """Which model to build and how large.

    ``options`` carries model-specific keyword arguments (e.g. TransE's
    ``norm``, ConvE's ``num_filters``).
    """

    name: str = "transe"
    dim: int = 32
    seed: int = 0
    options: dict[str, Any] = field(default_factory=dict)

    def with_(self, **changes) -> "ModelConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True, kw_only=True)
class TrainConfig:
    """How to train a model.

    All fields are keyword-only: positional construction silently breaks
    whenever a field is inserted, so ``TrainConfig(epochs=5)`` is the only
    supported spelling.

    ``job`` selects the training regime: ``"negative_sampling"`` (margin
    or BCE loss on corrupted triples) or ``"kvsall"`` (BCE against all
    entities per (s, r) query, ConvE-style).  The learning rate ``lr``
    stays constant for the whole fit.  Construction rejects an unknown
    ``job`` or ``loss`` and a non-positive ``lr``, a negative
    ``weight_decay``, ``eval_every`` or ``early_stopping_patience``.

    ``sparse_grads`` selects the row-sparse embedding fast path:
    ``"auto"`` (default) enables it for entity embeddings under the
    negative-sampling job — the only regime where entity gradients are
    actually row-sparse — except where a lazy optimizer meets a
    per-batch parameter hook and the fast path cannot win (see
    ``repro.kge.training._enable_sparse_grads``); ``"on"`` forces the
    flag regardless of job, and ``"off"`` keeps the classic dense
    accumulation everywhere.  All three settings train to bit-identical
    parameters.
    """

    job: str = "negative_sampling"
    loss: str = "margin"
    epochs: int = 50
    batch_size: int = 256
    lr: float = 0.05
    optimizer: str = "adam"
    momentum: float = 0.0
    sparse_grads: str = "auto"
    num_negatives: int = 8
    margin: float = 1.0
    label_smoothing: float = 0.0
    weight_decay: float = 0.0
    corrupt: str = "both"
    filter_negatives: bool = True
    eval_every: int = 0
    early_stopping_patience: int = 0
    seed: int = 0
    verbose: bool = False

    def __post_init__(self) -> None:
        if self.job not in ("negative_sampling", "kvsall"):
            raise ValueError(f"unknown training job {self.job!r}")
        if self.loss not in ("margin", "bce"):
            raise ValueError(f"loss must be 'margin' or 'bce', got {self.loss!r}")
        if not self.lr > 0.0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if not self.weight_decay >= 0.0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.eval_every < 0 or self.early_stopping_patience < 0:
            raise ValueError("eval_every and early_stopping_patience must be >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.sparse_grads not in ("auto", "on", "off"):
            raise ValueError(
                f"sparse_grads must be 'auto', 'on' or 'off', got {self.sparse_grads!r}"
            )

    def with_(self, **changes) -> "TrainConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TrainConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Unknown keys raise :class:`ValueError` so stale serialized configs
        fail loudly instead of silently dropping settings.
        """
        known = {spec.name for spec in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown TrainConfig keys: {sorted(unknown)}"
            )
        return cls(**data)


def expand_grid(space: dict[str, list[Any]]) -> Iterator[dict[str, Any]]:
    """Expand ``{param: [values...]}`` into the cartesian product of dicts.

    The iteration order is deterministic: parameters vary slowest-first in
    the order given (like LibKGE's grid-search syntax).
    """
    if not space:
        yield {}
        return
    keys = list(space)
    for values in itertools.product(*(space[k] for k in keys)):
        yield dict(zip(keys, values))
