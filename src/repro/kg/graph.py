"""The :class:`KnowledgeGraph` container: vocabularies plus split triple sets.

Mirrors the standard benchmark layout used by LibKGE-style libraries: a
train/validation/test split over a shared entity and relation id space.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .triples import TripleSet
from .vocabulary import Vocabulary

__all__ = ["KnowledgeGraph"]


@dataclass(frozen=True)
class KnowledgeGraph:
    """A frozen knowledge graph with train/validation/test splits.

    The graph builds the union of its splits once, on first use, and
    keeps it.  Graph statistics are not cached here: each discovery run
    is charged for its own weight computation, as in the paper.

    Attributes
    ----------
    name:
        Human-readable dataset name (e.g. ``"fb15k237-like"``).
    entities, relations:
        Label vocabularies; ids index embedding rows directly.
    train, valid, test:
        The three splits as :class:`TripleSet` instances over the shared
        id space.
    """

    name: str
    entities: Vocabulary
    relations: Vocabulary
    train: TripleSet
    valid: TripleSet
    test: TripleSet
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for split_name, split in (
            ("train", self.train),
            ("valid", self.valid),
            ("test", self.test),
        ):
            if split.num_entities != len(self.entities):
                raise ValueError(
                    f"{split_name} split entity space ({split.num_entities}) "
                    f"does not match vocabulary ({len(self.entities)})"
                )
            if split.num_relations != len(self.relations):
                raise ValueError(
                    f"{split_name} split relation space ({split.num_relations}) "
                    f"does not match vocabulary ({len(self.relations)})"
                )

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------
    @property
    def num_entities(self) -> int:
        return len(self.entities)

    @property
    def num_relations(self) -> int:
        return len(self.relations)

    @property
    def num_triples(self) -> int:
        """Total triples across all splits."""
        return len(self.train) + len(self.valid) + len(self.test)

    def __repr__(self) -> str:
        return (
            f"KnowledgeGraph(name={self.name!r}, entities={self.num_entities}, "
            f"relations={self.num_relations}, train={len(self.train)}, "
            f"valid={len(self.valid)}, test={len(self.test)})"
        )

    # ------------------------------------------------------------------
    # Derived triple sets
    # ------------------------------------------------------------------
    def all_triples(self) -> TripleSet:
        """Union of train, validation and test triples, built once on first use.

        One set over the three splits concatenated: its rows keep their
        first occurrence, exactly as the chained pairwise unions would.
        The graph is immutable, so threads that race to build the union
        build equal sets and either assignment is correct.
        """
        union = self.__dict__.get("_all_triples")
        if union is None:
            splits = (self.train, self.valid, self.test)
            union = TripleSet(
                np.concatenate([split.array for split in splits], axis=0),
                self.num_entities,
                self.num_relations,
            )
            object.__setattr__(self, "_all_triples", union)
        return union

    def complement_size(self) -> int:
        """Size of the complement graph, |E|²·|R| − |G| over all splits."""
        return self.all_triples().complement_size()

    def average_relations_per_entity(self) -> float:
        """2·M / N — the paper quotes ≈4.5 for WN18RR to explain sparsity."""
        if self.num_entities == 0:
            return 0.0
        return 2.0 * len(self.train) / self.num_entities

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(
        cls,
        name: str,
        num_entities: int,
        num_relations: int,
        train: np.ndarray,
        valid: np.ndarray,
        test: np.ndarray,
        entity_labels: list[str] | None = None,
        relation_labels: list[str] | None = None,
        metadata: dict | None = None,
    ) -> "KnowledgeGraph":
        """Build a graph from raw integer triple arrays.

        Labels default to synthetic ``e_i`` / ``r_j`` names.
        """
        entities = (
            Vocabulary(entity_labels)
            if entity_labels is not None
            else Vocabulary.from_range("e", num_entities)
        )
        relations = (
            Vocabulary(relation_labels)
            if relation_labels is not None
            else Vocabulary.from_range("r", num_relations)
        )
        if len(entities) != num_entities or len(relations) != num_relations:
            raise ValueError("label list lengths must match declared sizes")
        return cls(
            name=name,
            entities=entities,
            relations=relations,
            train=TripleSet(train, num_entities, num_relations),
            valid=TripleSet(valid, num_entities, num_relations),
            test=TripleSet(test, num_entities, num_relations),
            metadata=dict(metadata or {}),
        )

    def label_triple(self, triple: tuple[int, int, int]) -> tuple[str, str, str]:
        """Translate an id triple into its labels."""
        s, r, o = triple
        return (
            self.entities.label_of(int(s)),
            self.relations.label_of(int(r)),
            self.entities.label_of(int(o)),
        )
