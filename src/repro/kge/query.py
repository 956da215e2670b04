"""Label-level query answering: the link-prediction consumer API.

The rest of :mod:`repro.kge` works in integer ids; this module is the
thin human-facing layer that answers ``(subject, relation, ?)`` and
``(?, relation, object)`` queries with labelled, scored entity lists —
what a practitioner actually calls after training a model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..autograd import no_grad
from ..kg.graph import KnowledgeGraph
from .base import KGEModel

__all__ = ["Answer", "top_objects", "top_subjects"]


@dataclass(frozen=True)
class Answer:
    """One ranked completion of a query."""

    entity: str
    score: float
    rank: int
    known: bool  # already a training fact?


def _answers(
    scores: np.ndarray,
    graph: KnowledgeGraph,
    known_ids: np.ndarray,
    k: int,
    exclude_known: bool,
) -> list[Answer]:
    known_mask = np.zeros(graph.num_entities, dtype=bool)
    known_mask[known_ids] = True
    order = np.argsort(-scores, kind="stable")
    answers: list[Answer] = []
    rank = 0
    for entity_id in order:
        if exclude_known and known_mask[entity_id]:
            continue
        rank += 1
        answers.append(
            Answer(
                entity=graph.entities.label_of(int(entity_id)),
                score=float(scores[entity_id]),
                rank=rank,
                known=bool(known_mask[entity_id]),
            )
        )
        if len(answers) == k:
            break
    return answers


def top_objects(
    model: KGEModel,
    graph: KnowledgeGraph,
    subject: str,
    relation: str,
    k: int = 10,
    exclude_known: bool = True,
) -> list[Answer]:
    """Answer ``(subject, relation, ?)``: the top-k object candidates.

    With ``exclude_known`` (default) entities already linked by a
    training triple are skipped — the discovery setting; pass ``False``
    to see the raw ranking including known facts.
    """
    s = graph.entities.id_of(subject)
    r = graph.relations.id_of(relation)
    with no_grad():
        scores = model.scores_sp(np.asarray([s]), np.asarray([r]))[0]
    known = graph.train.known_entities([s], [r], "object")[0]
    return _answers(scores, graph, known, k, exclude_known)


def top_subjects(
    model: KGEModel,
    graph: KnowledgeGraph,
    relation: str,
    obj: str,
    k: int = 10,
    exclude_known: bool = True,
) -> list[Answer]:
    """Answer ``(?, relation, object)``: the top-k subject candidates."""
    r = graph.relations.id_of(relation)
    o = graph.entities.id_of(obj)
    with no_grad():
        scores = model.scores_po(np.asarray([r]), np.asarray([o]))[0]
    known = graph.train.known_entities([r], [o], "subject")[0]
    return _answers(scores, graph, known, k, exclude_known)
