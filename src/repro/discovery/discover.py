"""Algorithm 1 of the paper: the ``discover_facts`` procedure.

For every relation in the graph, candidate triples are generated as the
mesh grid of sampled subject and object entities, filtered against the
known graph, ranked against their object-side corruptions by the KGE
model, and kept when they rank within ``top_n``.

The implementation mirrors the pseudocode faithfully:

* ``sample_size = ⌊√max_candidates⌋ + 10``  (line 4);
* generation repeats until ``max_candidates`` candidates exist or **5**
  iterations have passed (line 8) — the constant the paper deliberately
  does not tune;
* triples already present in the training graph are filtered (line 12);
* candidates ranked worse than ``top_n`` are dropped (line 15).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from ..autograd import no_grad
from ..kg.graph import KnowledgeGraph
from ..kg.stats import OBJECT, SUBJECT, GraphStatistics
from ..kg.triples import encode_keys
from ..kge.base import KGEModel
from ..kge.ranking import RANKING_STATS_ALIASES, RankingEngine
from ..obs import (
    ReportableMixin,
    flatten_spans,
    get_registry,
    span,
    span_tree_delta,
)
from ..resilience import Deadline, spawn_stream
from .config import DiscoveryConfig
from .strategies import SamplingStrategy, create_strategy

__all__ = [
    "DiscoveryResult",
    "RelationDiscovery",
    "discover_facts",
    "discover_relation",
    "MAX_GENERATION_ITERATIONS",
]

logger = logging.getLogger(__name__)

#: Algorithm 1's fixed iteration cap (line 8); the paper treats it as a
#: constant rather than a hyperparameter.
MAX_GENERATION_ITERATIONS = 5


@dataclass
class DiscoveryResult(ReportableMixin):
    """Output of one ``discover_facts`` run plus its runtime accounting."""

    facts: np.ndarray
    ranks: np.ndarray
    strategy: str
    top_n: int
    max_candidates: int
    candidates_generated: int
    generation_seconds: float
    ranking_seconds: float
    weight_seconds: float
    per_relation: dict[int, int] = field(default_factory=dict)
    ranking_stats: dict[str, float] = field(default_factory=dict)
    trace: dict[str, dict[str, float]] = field(default_factory=dict)

    @property
    def num_facts(self) -> int:
        return len(self.facts)

    @property
    def runtime_seconds(self) -> float:
        """Total runtime: weight computation + generation + ranking."""
        return self.weight_seconds + self.generation_seconds + self.ranking_seconds

    def mrr(self) -> float:
        """Mean reciprocal rank of the discovered facts (Equation 7)."""
        if self.ranks.size == 0:
            return 0.0
        return float((1.0 / self.ranks).mean())

    def efficiency_facts_per_hour(self) -> float:
        """The paper's efficiency metric: discovered facts per hour."""
        if self.runtime_seconds <= 0:
            return 0.0
        return self.num_facts / (self.runtime_seconds / 3600.0)

    def top_facts(self, limit: int | None = None) -> np.ndarray:
        """Facts sorted by rank (best first), optionally truncated."""
        order = np.argsort(self.ranks, kind="stable")
        if limit is not None:
            order = order[:limit]
        return self.facts[order]

    def labelled_facts(
        self, graph, limit: int | None = None
    ) -> list[tuple[str, str, str, float]]:
        """Discovered facts as ``(subject, relation, object, rank)`` labels.

        ``graph`` must be the :class:`~repro.kg.graph.KnowledgeGraph` the
        ids refer to.  Ordered best-rank first.
        """
        order = np.argsort(self.ranks, kind="stable")
        if limit is not None:
            order = order[:limit]
        out = []
        for idx in order:
            s, r, o = graph.label_triple(tuple(self.facts[idx]))
            out.append((s, r, o, float(self.ranks[idx])))
        return out

    def save_tsv(self, path, graph) -> None:
        """Write the labelled facts (with ranks) to a TSV file."""
        from pathlib import Path

        lines = [
            f"{s}\t{r}\t{o}\t{rank:g}"
            for s, r, o, rank in self.labelled_facts(graph)
        ]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    def summary(self) -> dict[str, float]:
        """Flat metric dict for tables and benchmarks.

        Keys follow the canonical ``*_seconds``/``*_count`` naming.  The
        pre-observability aliases (``num_facts``, ``candidates_generated``,
        raw :class:`~repro.kge.ranking.RankingStats` counters) completed
        their deprecation cycle and no longer resolve; the ``num_facts``
        *attribute* remains as Python-level API.  When the run went
        through a :class:`~repro.kge.ranking.RankingEngine` the engine's
        counters are included, and when observability was enabled the
        run's span tree appears as flat ``span.<path>.wall_seconds``
        scalars.
        """
        out = {
            "strategy": self.strategy,
            "facts_count": self.num_facts,
            "mrr": self.mrr(),
            "runtime_seconds": self.runtime_seconds,
            "generation_seconds": self.generation_seconds,
            "ranking_seconds": self.ranking_seconds,
            "weight_seconds": self.weight_seconds,
            "efficiency_facts_per_hour": self.efficiency_facts_per_hour(),
            "candidates_generated_count": self.candidates_generated,
        }
        for legacy, value in self.ranking_stats.items():
            out[RANKING_STATS_ALIASES.get(legacy, legacy)] = value
        for path, node in self.trace.items():
            out[f"span.{path}.wall_seconds"] = node["wall_seconds"]
        return out


def _mesh_candidates(
    subjects: np.ndarray, relation: int, objects: np.ndarray
) -> np.ndarray:
    """All (s, r, o) combinations of the sampled entities (line 11)."""
    s_grid, o_grid = np.meshgrid(subjects, objects, indexing="ij")
    out = np.empty((s_grid.size, 3), dtype=np.int64)
    out[:, 0] = s_grid.ravel()
    out[:, 1] = relation
    out[:, 2] = o_grid.ravel()
    return out


@dataclass
class RelationDiscovery:
    """One relation's slice of a discovery run."""

    relation: int
    facts: np.ndarray
    ranks: np.ndarray
    candidates_generated: int
    generation_seconds: float
    ranking_seconds: float


def discover_relation(
    model: KGEModel,
    train,
    strategy: SamplingStrategy,
    relation: int,
    rng: np.random.Generator,
    top_n: int,
    max_candidates: int,
    sample_size: int,
    drop_self_loops: bool,
    rule_filter,
    engine: RankingEngine,
) -> RelationDiscovery:
    """Lines 8–15 of Algorithm 1 for a single relation.

    The RNG is passed in explicitly: :func:`discover_facts` gives every
    relation its own stream, so a relation's outcome does not depend on
    which relations ran before it.
    """
    with span("discover.generate") as generate_span:
        local: list[np.ndarray] = []
        local_count = 0
        seen_keys = np.empty(0, dtype=np.int64)
        iterations = 0
        while (
            local_count < max_candidates
            and iterations < MAX_GENERATION_ITERATIONS
        ):
            subjects = strategy.sample(
                SUBJECT, sample_size, rng, relation=relation
            )
            objects = strategy.sample(
                OBJECT, sample_size, rng, relation=relation
            )
            candidates = _mesh_candidates(subjects, relation, objects)
            if drop_self_loops:
                candidates = candidates[candidates[:, 0] != candidates[:, 2]]
            # Line 12: filter triples already in G.
            candidates = candidates[~train.contains(candidates)]
            if rule_filter is not None:
                candidates = candidates[rule_filter.accept_mask(candidates)]
            # Deduplicate across iterations: vectorised probe against
            # the sorted seen-keys array (repeats *within* one mesh
            # batch are kept, exactly as the retired per-key Python
            # loop did).
            keys = encode_keys(
                candidates, train.num_entities, train.num_relations
            )
            fresh = ~np.isin(keys, seen_keys)
            candidates = candidates[fresh]
            seen_keys = np.union1d(seen_keys, keys[fresh])
            local.append(candidates)
            local_count += len(candidates)
            iterations += 1
        relation_candidates = (
            np.concatenate(local, axis=0)[:max_candidates]
            if local
            else np.zeros((0, 3), dtype=np.int64)
        )
    if len(relation_candidates) == 0:
        return RelationDiscovery(
            relation=relation,
            facts=np.zeros((0, 3), dtype=np.int64),
            ranks=np.zeros(0),
            candidates_generated=0,
            generation_seconds=generate_span.wall_seconds,
            ranking_seconds=0.0,
        )

    # Line 14: rank candidates against their corruptions (standard
    # filtered protocol per Bordes et al.), deduplicated by unique
    # (s, r) query.  Scoring is pure inference: no_grad keeps the
    # tape from recording backward closures for millions of
    # candidate scores.
    with span("rank") as rank_span:
        with no_grad():
            ranks = engine.compute_ranks(
                model,
                relation_candidates,
                filter_triples=train,
                side="object",
            )

    # Line 15: quality filter.
    keep = ranks <= top_n
    logger.debug(
        "relation %d: %d/%d candidates within top_n=%d",
        relation,
        int(keep.sum()),
        len(relation_candidates),
        top_n,
    )
    return RelationDiscovery(
        relation=relation,
        facts=relation_candidates[keep],
        ranks=ranks[keep],
        candidates_generated=len(relation_candidates),
        generation_seconds=generate_span.wall_seconds,
        ranking_seconds=rank_span.wall_seconds,
    )


def discover_facts(
    model: KGEModel,
    graph: KnowledgeGraph,
    strategy: str | SamplingStrategy = "entity_frequency",
    top_n: int = 500,
    max_candidates: int = 500,
    relations: list[int] | None = None,
    seed: int = 0,
    stats: GraphStatistics | None = None,
    drop_self_loops: bool = True,
    rule_filter: "RuleFilter | None" = None,
    engine: RankingEngine | None = None,
    workers: int = 1,
    cache_size: int = 128,
    config: DiscoveryConfig | None = None,
    deadline: Deadline | None = None,
) -> DiscoveryResult:
    """Discover plausible missing facts from a trained KGE model.

    Parameters
    ----------
    model:
        Trained scoring model over ``graph``'s id spaces.
    graph:
        The knowledge graph used to train ``model``; its training split
        defines "seen" triples and the ranking filter.
    strategy:
        Sampling strategy name (see
        :func:`repro.discovery.strategies.available_strategies`) or a
        ready instance.
    top_n:
        Maximum accepted rank of a candidate against its object-side
        corruptions (quality threshold).
    max_candidates:
        Candidate budget per relation.
    relations:
        Relation ids to discover facts for; defaults to every relation in
        the training split.
    seed:
        Base seed for the entity sampler.  Every relation draws from its
        own stream, ``spawn_stream(seed, relation)``, so results are a
        pure function of ``(seed, relation)`` — independent of relation
        order.
    stats:
        Pre-computed :class:`GraphStatistics` (reused across runs so the
        weight-computation cost can also be measured in isolation).
    drop_self_loops:
        Skip candidates with ``s == o`` (AmpliGraph does the same).
    rule_filter:
        Optional :class:`~repro.discovery.rules.RuleFilter` applied to
        each candidate batch before ranking — the paper's §6 "pruning
        mechanisms" direction combining CHAI-style rules with sampling.
    engine:
        A shared :class:`~repro.kge.ranking.RankingEngine`; when omitted
        one is built from ``workers`` / ``cache_size``.  Results are
        identical either way — the engine only changes how ranking is
        computed, never what it returns.
    workers:
        Thread-pool width for scoring independent query chunks (only
        used when ``engine`` is omitted).
    cache_size:
        LRU score-row cache entries (only used when ``engine`` is
        omitted); lets later generation iterations reuse rows for
        re-sampled ``(s, r)`` queries.  Each entry holds two
        ``num_entities``-sized float64 rows.
    config:
        Optional :class:`~repro.discovery.config.DiscoveryConfig`.  When
        given it replaces ``strategy``, ``top_n``, ``max_candidates``,
        ``seed``, ``drop_self_loops``, ``workers`` and ``cache_size``
        wholesale — mixing a config with explicit values for those
        arguments is not supported, so a serialized config replays the
        exact run it describes.
    deadline:
        Optional cooperative :class:`~repro.resilience.Deadline` from the
        caller (e.g. ``run_matrix``'s per-cell budget).  It is checked
        between relations — a running relation is never interrupted —
        and raises :class:`~repro.resilience.DeadlineExceededError` on
        overrun.

    Returns
    -------
    DiscoveryResult
        Discovered facts (``rank <= top_n``), their ranks, and a runtime
        breakdown into weight computation, generation and ranking.
    """
    if config is not None:
        strategy = config.strategy
        top_n = config.top_n
        max_candidates = config.max_candidates
        seed = config.seed
        drop_self_loops = config.drop_self_loops
        workers = config.workers
        cache_size = config.cache_size
    if top_n < 1:
        raise ValueError(f"top_n must be >= 1, got {top_n}")
    if max_candidates < 1:
        raise ValueError(f"max_candidates must be >= 1, got {max_candidates}")
    model_entities = getattr(model, "num_entities", None)
    if model_entities is not None and model_entities != graph.num_entities:
        raise ValueError(
            f"model was built for {model_entities} entities but the graph "
            f"has {graph.num_entities}; did you pass the wrong dataset?"
        )

    train = graph.train
    if stats is None:
        stats = GraphStatistics(train)
    if engine is None:
        engine = RankingEngine(cache_size=cache_size, workers=workers)
    stats_before = getattr(engine, "stats", None)
    stats_baseline = stats_before.as_dict() if stats_before is not None else {}

    if isinstance(strategy, str):
        strategy = create_strategy(strategy)

    registry = get_registry()
    spans_before = registry.snapshot()["spans"] if registry.enabled else None

    with span("discover"):
        # Line 7: compute_weights(strategy).  Done once — the distributions
        # do not change across relations — but charged to the runtime as in
        # the paper, where this step dominates for the triangle-based
        # strategies.
        with span("discover.weights") as weights_span:
            strategy.prepare(stats)
        weight_seconds = weights_span.wall_seconds

        if relations is None:
            relations = [int(r) for r in train.unique_relations()]

        # Line 4: mesh-grid side length.
        sample_size = int(np.sqrt(max_candidates)) + 10

        all_facts: list[np.ndarray] = []
        all_ranks: list[np.ndarray] = []
        per_relation: dict[int, int] = {}
        candidates_generated = 0
        generation_seconds = 0.0
        ranking_seconds = 0.0

        # Cooperative deadline enforcement: a relation in progress
        # always finishes; the budget is checked at each relation
        # boundary.
        for relation in relations:
            if deadline is not None:
                deadline.check(f"discover_facts:relation/{relation}")
            outcome = discover_relation(
                model,
                train,
                strategy,
                relation,
                spawn_stream(seed, relation),
                top_n=top_n,
                max_candidates=max_candidates,
                sample_size=sample_size,
                drop_self_loops=drop_self_loops,
                rule_filter=rule_filter,
                engine=engine,
            )
            generation_seconds += outcome.generation_seconds
            ranking_seconds += outcome.ranking_seconds
            candidates_generated += outcome.candidates_generated
            registry.counter("discover.relations_count").inc()
            registry.counter("discover.candidates_count").inc(
                outcome.candidates_generated
            )
            per_relation[outcome.relation] = len(outcome.ranks)
            if outcome.candidates_generated == 0:
                continue
            all_facts.append(outcome.facts)
            all_ranks.append(outcome.ranks)
            registry.counter("discover.facts_count").inc(len(outcome.ranks))

        facts = (
            np.concatenate(all_facts, axis=0)
            if all_facts
            else np.zeros((0, 3), dtype=np.int64)
        )
        ranks = np.concatenate(all_ranks) if all_ranks else np.zeros(0)

    trace: dict[str, dict[str, float]] = {}
    if spans_before is not None:
        trace = flatten_spans(
            span_tree_delta(spans_before, registry.snapshot()["spans"])
        )
    logger.info(
        "discovered %d facts with %s over %d relations "
        "(%.2fs: weights %.3fs, generation %.3fs, ranking %.3fs)",
        len(facts),
        strategy.name,
        len(relations),
        weight_seconds + generation_seconds + ranking_seconds,
        weight_seconds,
        generation_seconds,
        ranking_seconds,
    )
    ranking_stats: dict[str, float] = {}
    if stats_before is not None:
        after = stats_before.as_dict()
        ranking_stats = {
            key: after[key] - stats_baseline.get(key, 0) for key in after
        }
    return DiscoveryResult(
        facts=facts,
        ranks=ranks,
        strategy=strategy.name,
        top_n=top_n,
        max_candidates=max_candidates,
        candidates_generated=candidates_generated,
        generation_seconds=generation_seconds,
        ranking_seconds=ranking_seconds,
        weight_seconds=weight_seconds,
        per_relation=per_relation,
        ranking_stats=ranking_stats,
        trace=trace,
    )
