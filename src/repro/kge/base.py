"""Base class and registry for knowledge-graph embedding models.

Every model exposes three scoring entry points used throughout the library:

* :meth:`KGEModel.score_spo` — score a batch of concrete triples;
* :meth:`KGEModel.score_sp` — score ``(s, r, ?)`` against **all** entities,
  the operation behind the paper's object-side corruption ranking;
* :meth:`KGEModel.score_po` — score ``(?, r, o)`` against all entities.

Higher scores mean more plausible triples for every model (distances are
negated).
"""

from __future__ import annotations

from typing import Callable, Type

import numpy as np

from ..autograd import Embedding, Module, Tensor, no_grad

__all__ = ["KGEModel", "register_model", "create_model", "available_models"]

_REGISTRY: dict[str, Type["KGEModel"]] = {}


def register_model(name: str) -> Callable[[Type["KGEModel"]], Type["KGEModel"]]:
    """Class decorator adding a model to the factory registry."""

    def decorator(cls: Type["KGEModel"]) -> Type["KGEModel"]:
        if name in _REGISTRY:
            raise ValueError(f"model {name!r} already registered")
        _REGISTRY[name] = cls
        cls.model_name = name
        return cls

    return decorator


def available_models() -> list[str]:
    """Registered model names, in registration order."""
    return list(_REGISTRY)


def create_model(
    name: str,
    num_entities: int,
    num_relations: int,
    dim: int,
    seed: int = 0,
    **kwargs,
) -> "KGEModel":
    """Instantiate a registered model by name."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown model {name!r}; available: {available_models()}")
    return _REGISTRY[name](
        num_entities=num_entities,
        num_relations=num_relations,
        dim=dim,
        seed=seed,
        **kwargs,
    )


class KGEModel(Module):
    """Common scaffolding for all embedding models.

    Subclasses must implement :meth:`score_spo` and :meth:`score_sp`;
    :meth:`score_po` has a generic (slower) fallback that subclasses
    override when a vectorised form exists.
    """

    model_name = "base"

    def __init__(
        self,
        num_entities: int,
        num_relations: int,
        dim: int,
        seed: int = 0,
        entity_init: str = "xavier_uniform",
        relation_init: str = "xavier_uniform",
        relation_dim: int | None = None,
    ) -> None:
        super().__init__()
        if dim < 1:
            raise ValueError(f"embedding dim must be >= 1, got {dim}")
        self.num_entities = num_entities
        self.num_relations = num_relations
        self.dim = dim
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.entity_embeddings = Embedding(
            num_entities, dim, self.rng, init=entity_init
        )
        self.relation_embeddings = Embedding(
            num_relations, relation_dim or dim, self.rng, init=relation_init
        )

    # ------------------------------------------------------------------
    # Scoring interface
    # ------------------------------------------------------------------
    def score_spo(
        self, s: np.ndarray, r: np.ndarray, o: np.ndarray
    ) -> Tensor:
        """Scores of concrete triples; all args are id arrays of length B."""
        raise NotImplementedError

    def score_sp(self, s: np.ndarray, r: np.ndarray) -> Tensor:
        """``(B, N)`` scores of ``(s_i, r_i, e)`` for every entity ``e``."""
        raise NotImplementedError

    def score_po(self, r: np.ndarray, o: np.ndarray) -> Tensor:
        """``(B, N)`` scores of ``(e, r_i, o_i)`` for every entity ``e``.

        Generic fallback: a single vectorised :meth:`score_spo` call over
        the tiled ``(B · N,)`` id arrays — every entity as subject of
        every query — reshaped to ``(B, N)``.  The output keeps whatever
        dtype :meth:`score_spo` produces.  Override for an
        implementation that avoids materialising the tiled batch.
        """
        r = np.asarray(r, dtype=np.int64)
        o = np.asarray(o, dtype=np.int64)
        batch = r.shape[0]
        n = self.num_entities
        all_entities = np.arange(n, dtype=np.int64)
        with no_grad():
            scores = self.score_spo(
                np.tile(all_entities, batch), np.repeat(r, n), np.repeat(o, n)
            )
        return Tensor(scores.data.reshape(batch, n))

    # ------------------------------------------------------------------
    # Convenience numpy wrappers (inference paths).  Each returns a fresh
    # model output the caller owns and may write into.
    # ------------------------------------------------------------------
    def scores_spo(self, triples: np.ndarray) -> np.ndarray:
        """Numpy scores of an ``(M, 3)`` triple array (no gradient tape)."""
        triples = np.asarray(triples, dtype=np.int64)
        with no_grad():
            return self.score_spo(triples[:, 0], triples[:, 1], triples[:, 2]).data

    def scores_sp(self, s: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Numpy ``(B, N)`` object-side scores (no gradient tape)."""
        with no_grad():
            return self.score_sp(
                np.asarray(s, dtype=np.int64), np.asarray(r, dtype=np.int64)
            ).data

    def scores_po(self, r: np.ndarray, o: np.ndarray) -> np.ndarray:
        """Numpy ``(B, N)`` subject-side scores (no gradient tape)."""
        with no_grad():
            return self.score_po(
                np.asarray(r, dtype=np.int64), np.asarray(o, dtype=np.int64)
            ).data

    # ------------------------------------------------------------------
    # Embedding access
    # ------------------------------------------------------------------
    def entity_matrix(self) -> np.ndarray:
        """The raw ``(N, d)`` entity embedding array."""
        return self.entity_embeddings.weight.data

    def relation_matrix(self) -> np.ndarray:
        """The raw ``(K, d_r)`` relation embedding array."""
        return self.relation_embeddings.weight.data

    def post_batch_hook(self) -> None:
        """Called by training jobs after each optimizer step.

        TransE overrides this to renormalise entity embeddings.
        """

    def sparse_entity_parameters(self) -> tuple:
        """Parameters eligible for the row-sparse gradient fast path.

        These are the per-entity tables indexed by gathered id arrays
        during scoring; the training loop toggles their ``sparse_grad``
        flag when :attr:`TrainConfig.sparse_grads` enables the fast
        path.  ConvE extends this with its per-entity output bias.
        """
        return (self.entity_embeddings.weight,)

    def config_options(self) -> dict:
        """Model-specific constructor options, for checkpointing.

        Overridden by models with extra constructor arguments (e.g.
        TransE's ``norm``); must return JSON-serialisable values that
        :func:`repro.kge.create_model` accepts as keyword arguments.
        """
        return {}

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(entities={self.num_entities}, "
            f"relations={self.num_relations}, dim={self.dim})"
        )
