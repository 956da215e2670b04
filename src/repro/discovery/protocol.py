"""A held-out evaluation protocol for fact discovery — the paper's third
future direction (§6).

The paper observes that fact discovery has *no* evaluation protocol: the
standard train/valid/test split does not work because discovery is not
exhaustive, and absence from the test set does not make a triple false.
This module implements the natural middle ground:

1. **hide** a fraction of the training triples (only triples whose
   entities and relation remain observable elsewhere, so the hidden facts
   stay discoverable in principle);
2. **train** a KGE model on the reduced graph;
3. **discover** facts on the reduced graph;
4. score **recall** (hidden facts recovered / hidden facts whose relation
   was searched) and the **known-true precision** lower bound (recovered
   hidden facts / all discovered facts — a lower bound because other
   discoveries may be true but unknown, exactly the caveat the paper
   raises).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..autograd import no_grad
from ..kg.graph import KnowledgeGraph
from ..kg.stats import GraphStatistics
from ..kg.triples import TripleSet
from ..kge.config import ModelConfig, TrainConfig
from ..kge.ranking import RankingEngine
from ..kge.training import fit
from ..obs import ReportableMixin, span
from .discover import DiscoveryResult, discover_facts

__all__ = ["ProtocolResult", "hide_triples", "heldout_discovery_protocol"]


@dataclass
class ProtocolResult(ReportableMixin):
    """Outcome of one held-out discovery evaluation."""

    num_hidden: int
    num_discovered: int
    num_recovered: int
    recall: float
    known_true_precision: float
    discovery: DiscoveryResult = field(repr=False)
    per_relation_recall: dict[int, float] = field(default_factory=dict)

    def summary(self) -> dict[str, float]:
        return {
            "hidden_count": self.num_hidden,
            "discovered_count": self.num_discovered,
            "recovered_count": self.num_recovered,
            "recall": self.recall,
            "known_true_precision": self.known_true_precision,
        }


def hide_triples(
    graph: KnowledgeGraph, fraction: float, seed: int = 0
) -> tuple[KnowledgeGraph, TripleSet]:
    """Split off a hidden subset of the training triples.

    Only triples whose subject, object and relation all appear in at
    least one *other* training triple are eligible — otherwise the hidden
    fact would reference an entity the reduced model has never seen and
    could not possibly rediscover.

    Returns ``(reduced_graph, hidden_triples)``.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    rng = np.random.default_rng(seed)
    train = graph.train.array
    subject_counts = np.bincount(train[:, 0], minlength=graph.num_entities)
    object_counts = np.bincount(train[:, 2], minlength=graph.num_entities)
    entity_counts = subject_counts + object_counts
    relation_counts = np.bincount(train[:, 1], minlength=graph.num_relations)

    eligible = (
        (entity_counts[train[:, 0]] >= 2)
        & (entity_counts[train[:, 2]] >= 2)
        & (relation_counts[train[:, 1]] >= 2)
    )
    candidates = np.flatnonzero(eligible)
    target = int(len(train) * fraction)
    if target == 0:
        raise ValueError("fraction too small: nothing would be hidden")
    picked = rng.choice(candidates, size=min(target, len(candidates)), replace=False)

    mask = np.zeros(len(train), dtype=bool)
    mask[picked] = True
    hidden = TripleSet(train[mask], graph.num_entities, graph.num_relations)
    reduced = KnowledgeGraph(
        name=f"{graph.name}-hidden{fraction:g}",
        entities=graph.entities,
        relations=graph.relations,
        train=TripleSet(train[~mask], graph.num_entities, graph.num_relations),
        valid=graph.valid,
        test=graph.test,
        metadata=dict(graph.metadata),
    )
    return reduced, hidden


def heldout_discovery_protocol(
    graph: KnowledgeGraph,
    model_config: ModelConfig,
    train_config: TrainConfig,
    strategy: str = "entity_frequency",
    hide_fraction: float = 0.2,
    top_n: int = 50,
    max_candidates: int = 500,
    seed: int = 0,
    engine: RankingEngine | None = None,
) -> ProtocolResult:
    """Run the full hide → train → discover → score protocol.

    ``engine`` is forwarded to :func:`discover_facts`, so protocol
    re-runs over the same reduced graph can share one score-row cache.
    """
    with span("protocol"):
        reduced, hidden = hide_triples(graph, hide_fraction, seed=seed)
        model = fit(reduced, model_config, train_config).model
        # Discovery is pure inference on the trained model; keep the whole
        # pipeline off the autodiff tape.
        with no_grad():
            discovery = discover_facts(
                model,
                reduced,
                strategy=strategy,
                top_n=top_n,
                max_candidates=max_candidates,
                seed=seed,
                stats=GraphStatistics(reduced.train),
                engine=engine,
            )

    recovered_mask = (
        hidden.contains(discovery.facts)
        if discovery.num_facts
        else np.zeros(0, dtype=bool)
    )
    num_recovered = int(recovered_mask.sum())
    recall = num_recovered / len(hidden) if len(hidden) else 0.0
    precision = (
        num_recovered / discovery.num_facts if discovery.num_facts else 0.0
    )

    per_relation_recall: dict[int, float] = {}
    if len(hidden):
        hidden_arr = hidden.array
        discovered = TripleSet(
            discovery.facts, graph.num_entities, graph.num_relations
        )
        found = discovered.contains(hidden_arr)
        relations, inverse = np.unique(hidden_arr[:, 1], return_inverse=True)
        hits = np.bincount(inverse[found], minlength=len(relations))
        recall_of = hits / np.bincount(inverse)
        per_relation_recall = dict(zip(relations.tolist(), recall_of.tolist()))

    return ProtocolResult(
        num_hidden=len(hidden),
        num_discovered=discovery.num_facts,
        num_recovered=num_recovered,
        recall=recall,
        known_true_precision=precision,
        discovery=discovery,
        per_relation_recall=per_relation_recall,
    )
