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

Generation runs round-major rather than relation by relation: each round
draws for every relation still short of its budget, each from its own
stream, then meshes, filters and cuts all their draws as one array.  Every
draw and every kept candidate is the one the per-relation loop would give;
only the per-relation Python overhead goes.  All relations' candidates are
then ranked in one engine pass.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from ..autograd import no_grad
from ..kg.graph import KnowledgeGraph
from ..kg.stats import OBJECT, SUBJECT, GraphStatistics
from ..kg.triples import TripleSet, encode_keys
from ..kge.base import KGEModel
from ..kge.ranking import RankingEngine, ranking_stat_key
from ..obs import ReportableMixin, SpanDelta, get_registry, span
from ..resilience import Deadline, spawn_stream
from .config import DiscoveryConfig
from .strategies import SamplingStrategy, create_strategy

__all__ = ["DiscoveryResult", "discover_facts", "MAX_GENERATION_ITERATIONS"]

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

        Keys follow the canonical ``*_seconds``/``*_count`` naming, the
        engine's counters included
        (:func:`~repro.kge.ranking.ranking_stat_key`).  When observability
        was enabled the run's span tree appears as flat
        ``span.<path>.wall_seconds`` scalars.
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
        for name, value in self.ranking_stats.items():
            out[ranking_stat_key(name)] = value
        for path, node in self.trace.items():
            out[f"span.{path}.wall_seconds"] = node["wall_seconds"]
        return out


def _mesh_candidates(
    subjects: list[np.ndarray], relations: list[int], objects: list[np.ndarray]
) -> np.ndarray:
    """All (s, r, o) combinations of each relation's sampled entities (line 11).

    ``subjects[i]`` and ``objects[i]`` were sampled for ``relations[i]``;
    the meshes follow one another in that order, subject-major.
    """
    sizes = [len(s) * len(o) for s, o in zip(subjects, objects)]
    out = np.empty((sum(sizes), 3), dtype=np.int64)
    stop = 0
    for s, relation, o, size in zip(subjects, relations, objects, sizes):
        stop += size
        mesh = out[stop - size : stop].reshape(len(s), len(o), 3)
        mesh[..., 0] = s[:, None]
        mesh[..., 1] = relation
        mesh[..., 2] = o
    return out


def _unseen_candidates(
    candidates: np.ndarray,
    train: TripleSet,
    seen_keys: np.ndarray | None,
    drop_self_loops: bool = True,
    rule_filter=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Candidates that are neither in the graph nor seen before (line 12).

    Drops self loops (when asked), triples of ``train``, triples the
    optional ``rule_filter`` rejects, and triples whose key is in the
    sorted ``seen_keys`` (repeats *within* one batch are kept).  Rows keep
    their order.  Returns the survivors and their
    :func:`~repro.kg.triples.encode_keys` keys, encoded once for both the
    graph probe and the seen test; the caller truncates them and unions
    the keys into ``seen_keys``.  ``seen_keys=None`` skips the dedup: a
    graph complement holds each triple once.
    """
    # ``compress`` selects rows several times faster than a boolean index.
    keys = encode_keys(candidates, train.num_entities, train.num_relations)
    keep = ~train.contains_keys(keys)
    if drop_self_loops:
        keep &= candidates[:, 0] != candidates[:, 2]
    candidates, keys = candidates.compress(keep, axis=0), keys[keep]
    if rule_filter is not None:
        candidates = rule_filter.filter(candidates)
        keys = encode_keys(candidates, train.num_entities, train.num_relations)
    if seen_keys is not None and seen_keys.size:
        fresh = ~np.isin(keys, seen_keys)
        candidates, keys = candidates.compress(fresh, axis=0), keys[fresh]
    return candidates, keys


def _sample_candidates(
    strategy: SamplingStrategy,
    train: TripleSet,
    relations: list[int],
    seed: int,
    max_candidates: int,
    sample_size: int,
    drop_self_loops: bool,
    rule_filter,
    start=None,
) -> list[np.ndarray]:
    """Lines 8–13 of Algorithm 1 for a block of distinct relations.

    Each relation draws from its own stream, ``spawn_stream(seed,
    relation)``: subjects, then objects, round after round, exactly as it
    would alone.  A round draws for every relation still short of
    ``max_candidates``, meshes and filters their draws as one array in one
    :func:`_unseen_candidates` pass, and cuts each relation to its
    remaining budget.  Generation stops when every relation is full or
    :data:`MAX_GENERATION_ITERATIONS` rounds have passed.
    ``start(relation)``, when given, runs before a relation's first draw.

    Returns each relation's candidates, in the order of ``relations``.
    """
    ids = np.asarray(relations, dtype=np.int64)
    # A survivor's owner is its relation's place in ``relations``, found
    # from its relation column; survivors stay grouped by owner.
    slot = np.zeros(train.num_relations, dtype=np.intp)
    slot[ids] = np.arange(len(ids))
    rngs: list[np.random.Generator] = []
    counts = np.zeros(len(relations), dtype=np.int64)
    batches: list[list[np.ndarray]] = [[] for _ in relations]
    seen_keys = np.empty(0, dtype=np.int64)
    active = list(range(len(relations)))
    for round_ in range(1, MAX_GENERATION_ITERATIONS + 1):
        with span("generate.sample"):
            subjects, objects = [], []
            for i in active:
                relation = relations[i]
                if round_ == 1:
                    if start is not None:
                        start(relation)
                    rngs.append(spawn_stream(seed, relation))
                for side, draws in ((SUBJECT, subjects), (OBJECT, objects)):
                    draws.append(
                        strategy.sample(side, sample_size, rngs[i], relation=relation)
                    )
        with span("generate.filter"):
            candidates, keys = _unseen_candidates(
                _mesh_candidates(subjects, ids[active], objects),
                train,
                seen_keys,
                drop_self_loops,
                rule_filter,
            )
            owner = slot[candidates[:, 1]]
            found = np.bincount(owner, minlength=len(relations))
            room = max_candidates - counts
            place = np.arange(len(owner)) - (found.cumsum() - found)[owner]
            taken = np.minimum(found, room)
            kept = candidates.compress(place < room[owner], axis=0)
            pieces = np.split(kept, taken.cumsum()[:-1])
            for i in active:
                batches[i].append(pieces[i])
            counts += taken
            active = [i for i in active if counts[i] < max_candidates]
            # Only a round that comes next reads the seen keys.
            if active and round_ < MAX_GENERATION_ITERATIONS:
                short = counts[owner] < max_candidates
                seen_keys = np.union1d(seen_keys, keys[short])
        if not active:
            break
    return [np.concatenate(batch, axis=0) for batch in batches]


def _blocks(relations: list[int], size: int):
    """``relations`` in order, cut into runs of at most ``size`` distinct ids."""
    block: list[int] = []
    for relation in relations:
        if len(block) == size or relation in block:
            yield block
            block = []
        block.append(relation)
    if block:
        yield block


#: Rows of queued candidates that :class:`_DiscoveryRun` ranks in one
#: engine pass.  Algorithm 1's relations fit under it together, so one call
#: ranks once; an exhaustive relation's ~N² complement passes it alone.  It
#: also bounds the mesh rows of one generation round: ``discover_facts``
#: takes relations in blocks of at most ``_BATCH_ROWS // sample_size²``.
_BATCH_ROWS = 65_536


class _DiscoveryRun:
    """One run's kept facts and ranks, and what finding them cost.

    Built before the run starts, it remembers the engine's counters and
    the span tree, so it reports this run alone even on a shared engine.
    :meth:`start` counts a relation as its generation begins,
    :meth:`relation` queues its generated candidates and :meth:`flush`
    ranks the queue in one engine pass; anytime pulls call :meth:`rank`
    directly.
    """

    def __init__(
        self, model: KGEModel, train: TripleSet, engine: RankingEngine, top_n: int
    ) -> None:
        self._model = model
        self._train = train
        self._engine = engine
        self._top_n = top_n
        self._baseline = engine.stats.to_dict()
        self._registry = get_registry()
        self._spans = SpanDelta(self._registry)
        self._facts: list[np.ndarray] = []
        self._ranks: list[np.ndarray] = []
        self._queue: list[tuple[int, np.ndarray]] = []
        self._queued_rows = 0
        self.per_relation: dict[int, int] = {}
        self.candidates_generated = 0
        self.generation_seconds = 0.0
        self.ranking_seconds = 0.0

    def rank(self, candidates: np.ndarray) -> np.ndarray:
        """Lines 14–15: rank candidates and keep those within top_n.

        Returns the keep mask.  Ranks follow the filtered protocol
        (Bordes et al.) against object-side corruptions.  Scoring is pure
        inference: ``no_grad`` keeps the tape from recording backward
        closures for millions of candidate scores.
        """
        with span("rank") as rank_span:
            with no_grad():
                ranks = self._engine.compute_ranks(
                    self._model, candidates, filter_triples=self._train, side="object"
                )
        self.ranking_seconds += rank_span.wall_seconds
        keep = ranks <= self._top_n
        self._registry.counter("discover.facts_count").inc(int(keep.sum()))
        self._facts.append(candidates[keep])
        self._ranks.append(ranks[keep])
        return keep

    def start(self, relation: int) -> None:
        """Count a relation whose generation begins now."""
        self.per_relation[relation] = 0
        self._registry.counter("discover.relations_count").inc()

    def relation(self, relation: int, candidates: np.ndarray) -> None:
        """Queue the candidates generated for one started relation.

        The queue is ranked once it holds :data:`_BATCH_ROWS` rows.
        """
        self.candidates_generated += len(candidates)
        self._registry.counter("discover.candidates_count").inc(len(candidates))
        if len(candidates):
            self._queue.append((relation, candidates))
            self._queued_rows += len(candidates)
            if self._queued_rows >= _BATCH_ROWS:
                self.flush()

    def flush(self) -> None:
        """Rank every queued candidate in one pass, in relation order."""
        if not self._queue:
            return
        relations, batches = zip(*self._queue)
        self._queue, self._queued_rows = [], 0
        lengths = [len(batch) for batch in batches]
        keep = self.rank(np.concatenate(batches, axis=0))
        kept = np.add.reduceat(keep.astype(np.int64), np.cumsum(lengths) - lengths)
        for relation, count, total in zip(relations, kept.tolist(), lengths):
            self.per_relation[relation] = count
            logger.debug(
                "relation %d: %d/%d candidates within top_n=%d",
                relation,
                count,
                total,
                self._top_n,
            )

    def finish(self):
        """``(facts, ranks, ranking_stats, trace)`` of the run so far."""
        self.flush()
        facts = (
            np.concatenate(self._facts, axis=0)
            if self._facts
            else np.zeros((0, 3), dtype=np.int64)
        )
        ranks = np.concatenate(self._ranks) if self._ranks else np.zeros(0)
        after = self._engine.stats.to_dict()
        ranking_stats = {key: after[key] - self._baseline[key] for key in after}
        return facts, ranks, ranking_stats, self._spans.flat()

    def result(
        self, strategy: str, max_candidates: int, weight_seconds: float
    ) -> DiscoveryResult:
        facts, ranks, ranking_stats, trace = self.finish()
        return DiscoveryResult(
            facts=facts,
            ranks=ranks,
            strategy=strategy,
            top_n=self._top_n,
            max_candidates=max_candidates,
            candidates_generated=self.candidates_generated,
            generation_seconds=self.generation_seconds,
            ranking_seconds=self.ranking_seconds,
            weight_seconds=weight_seconds,
            per_relation=self.per_relation,
            ranking_stats=ranking_stats,
            trace=trace,
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
        Any object whose ``filter(candidates)`` returns a subset of the
        rows in their order will do; one batch holds several relations.
    engine:
        A shared :class:`~repro.kge.ranking.RankingEngine`; when omitted
        a cacheless one is built.  The run ranks its candidates in one
        engine pass over deduplicated queries, so only a shared engine's
        row cache (carried across calls) can hit.  Results are identical
        either way — the engine only changes how ranking is computed,
        never what it returns.
    config:
        Optional :class:`~repro.discovery.config.DiscoveryConfig`.  When
        given it replaces ``strategy``, ``top_n``, ``max_candidates``,
        ``seed`` and ``drop_self_loops`` wholesale —
        mixing a config with explicit values for those arguments is not
        supported, so a serialized config replays the exact run it
        describes.
    deadline:
        Optional cooperative :class:`~repro.resilience.Deadline` from the
        caller (e.g. ``run_matrix``'s per-cell budget).  It is checked
        before each relation's first draw — a generation round is never
        interrupted — and raises
        :class:`~repro.resilience.DeadlineExceededError` on overrun, which
        discards the relations already started.  Relations are generated
        together, in blocks whose round meshes hold at most 65,536 rows,
        so in a typical call every check comes before the first round's
        meshes are filtered; the candidates are ranked after the last
        block.

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
        engine = RankingEngine()

    if isinstance(strategy, str):
        strategy = create_strategy(strategy)

    run = _DiscoveryRun(model, train, engine, top_n)
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

        def start(relation: int) -> None:
            # Cooperative deadline: checked before each relation's first
            # draw; nothing started is kept on overrun.
            if deadline is not None:
                deadline.check(f"discover_facts:relation/{relation}")
            run.start(relation)

        # Relations generate in blocks whose round meshes fit the ranking
        # queue's row cap; one block holds every relation of a typical
        # call.  Candidates queue in the order of ``relations``.
        for block in _blocks(relations, max(1, _BATCH_ROWS // sample_size**2)):
            with span("discover.generate") as generate_span:
                batches = _sample_candidates(
                    strategy,
                    train,
                    block,
                    seed,
                    max_candidates,
                    sample_size,
                    drop_self_loops,
                    rule_filter,
                    start,
                )
            run.generation_seconds += generate_span.wall_seconds
            for relation, candidates in zip(block, batches):
                run.relation(relation, candidates)
        run.flush()

    result = run.result(strategy.name, max_candidates, weight_seconds)
    logger.info(
        "discovered %d facts with %s over %d relations "
        "(%.2fs: weights %.3fs, generation %.3fs, ranking %.3fs)",
        result.num_facts,
        strategy.name,
        len(relations),
        result.runtime_seconds,
        weight_seconds,
        result.generation_seconds,
        result.ranking_seconds,
    )
    return result
