"""The standard KGE evaluation protocol.

Implements the object-side corruption ranking described in the paper
(§2.1 *Testing*): for each test triple ``(s, r, o)``, the object is
replaced by every entity, the candidates are scored, and the rank of the
true object yields MRR / mean rank / Hits@k.  Subject-side ranking and the
*filtered* setting (Bordes et al., 2013) — where other known-true triples
are excluded from the corruption list — are also provided.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..autograd import no_grad
from ..kg.graph import KnowledgeGraph
from ..kg.triples import TripleSet
from ..resilience import spawn_stream
from .base import KGEModel
from .ranking import RankingEngine

__all__ = [
    "RankingMetrics",
    "compute_ranks",
    "compute_ranks_reference",
    "evaluate_ranking",
    "generate_hard_negatives",
    "triple_classification",
]

_DEFAULT_HITS = (1, 3, 10)


@dataclass
class RankingMetrics:
    """Aggregate ranking metrics plus the raw rank vector."""

    mrr: float
    mean_rank: float
    hits: dict[int, float]
    ranks: np.ndarray = field(repr=False, default_factory=lambda: np.zeros(0))

    @classmethod
    def from_ranks(
        cls, ranks: np.ndarray, hits_at: tuple[int, ...] = _DEFAULT_HITS
    ) -> "RankingMetrics":
        """Aggregate a vector of (possibly fractional, tie-averaged) ranks."""
        ranks = np.asarray(ranks, dtype=np.float64)
        if ranks.size == 0:
            return cls(mrr=0.0, mean_rank=0.0, hits={k: 0.0 for k in hits_at})
        return cls(
            mrr=float((1.0 / ranks).mean()),
            mean_rank=float(ranks.mean()),
            hits={k: float((ranks <= k).mean()) for k in hits_at},
            ranks=ranks,
        )


def _filter_index(
    triples: TripleSet, side: str
) -> dict[tuple[int, int], np.ndarray]:
    """Map each ``(s, r)`` (object side) / ``(r, o)`` query to its known
    entities with a plain dict — the reference path's own index, kept
    independent of :meth:`TripleSet.known_entities`."""
    columns = [0, 1, 2] if side == "object" else [1, 2, 0]
    index: dict[tuple[int, int], list[int]] = {}
    for a, b, entity in triples.array[:, columns].tolist():
        index.setdefault((a, b), []).append(entity)
    return {k: np.asarray(v, dtype=np.int64) for k, v in index.items()}


def compute_ranks(
    model: KGEModel,
    triples: np.ndarray,
    filter_triples: TripleSet | None = None,
    side: str = "object",
    chunk_size: int = 512,
    engine: "RankingEngine | None" = None,
) -> np.ndarray:
    """Realistic (tie-averaged) ranks of true entities among corruptions.

    Served by the query-deduplicated :class:`~repro.kge.ranking.RankingEngine`
    — candidates sharing a ``(s, r)`` / ``(r, o)`` query are ranked against
    a single 1-vs-all score row, which produces bit-identical ranks to
    :func:`compute_ranks_reference` while scoring at most one row per
    *unique* query.

    Parameters
    ----------
    model:
        A trained scoring model.
    triples:
        ``(M, 3)`` array of triples to rank.
    filter_triples:
        If given, the *filtered* protocol is used: every other entity known
        to complete the query in this set is removed from the corruption
        list (the target itself is always kept).
    side:
        ``"object"`` replaces the object slot (the paper's protocol);
        ``"subject"`` replaces the subject slot.
    chunk_size:
        Number of unique queries scored per vectorised batch.
    engine:
        A shared :class:`RankingEngine` (score cache, instrumentation);
        a throwaway engine is created when omitted.
    """
    if engine is None:
        engine = RankingEngine(chunk_size=chunk_size)
    with no_grad():
        return engine.compute_ranks(
            model, triples, filter_triples=filter_triples, side=side
        )


def compute_ranks_reference(
    model: KGEModel,
    triples: np.ndarray,
    filter_triples: TripleSet | None = None,
    side: str = "object",
    chunk_size: int = 512,
) -> np.ndarray:
    """The legacy chunked ranking path: one score row **per candidate**.

    Kept as the reference implementation the equivalence suite checks
    :class:`~repro.kge.ranking.RankingEngine` against; prefer
    :func:`compute_ranks` everywhere else.

    The two agree bit for bit except on a filtered candidate whose own
    score is ``-inf``.  This path masks the known entities to ``-inf``,
    so they count as ties of such a target; the engine removes them from
    both counts.  The reference rank is then higher by half the number
    of known non-target entities.
    """
    if side not in ("object", "subject"):
        raise ValueError(f"side must be 'object' or 'subject', got {side!r}")
    triples = np.asarray(triples, dtype=np.int64)
    if triples.size == 0:
        return np.zeros(0)

    index = _filter_index(filter_triples, side) if filter_triples is not None else None
    ranks = np.zeros(len(triples))

    with no_grad():
        for start in range(0, len(triples), chunk_size):
            batch = triples[start : start + chunk_size]
            if side == "object":
                scores = model.scores_sp(batch[:, 0], batch[:, 1])
                targets = batch[:, 2]
                keys = batch[:, [0, 1]]
            else:
                scores = model.scores_po(batch[:, 1], batch[:, 2])
                targets = batch[:, 0]
                keys = batch[:, [1, 2]]

            target_scores = scores[np.arange(len(batch)), targets].copy()
            if index is not None:
                for i, (a, b) in enumerate(keys):
                    known = index.get((int(a), int(b)))
                    if known is not None:
                        scores[i, known] = -np.inf
                # The targets themselves were masked with the rest of the
                # known-true entities; restore them so they can be ranked.
                scores[np.arange(len(batch)), targets] = target_scores
            greater = (scores > target_scores[:, None]).sum(axis=1)
            equal = (scores == target_scores[:, None]).sum(axis=1)
            # Realistic rank: ties broken at their expected position.
            ranks[start : start + len(batch)] = greater + (equal - 1) / 2.0 + 1.0
    return ranks


def evaluate_ranking(
    model: KGEModel,
    graph: KnowledgeGraph,
    split: str = "test",
    filtered: bool = True,
    side: str = "object",
    hits_at: tuple[int, ...] = _DEFAULT_HITS,
) -> RankingMetrics:
    """Run the full link-prediction evaluation on a dataset split.

    ``side`` may be ``"object"`` (the paper's protocol), ``"subject"``, or
    ``"both"`` — the common convention of averaging over object- and
    subject-side corruption ranks.
    """
    split_set = {"train": graph.train, "valid": graph.valid, "test": graph.test}.get(
        split
    )
    if split_set is None:
        raise KeyError(f"unknown split {split!r}")
    filter_triples = graph.all_triples() if filtered else None
    sides = ("object", "subject") if side == "both" else (side,)
    with no_grad():
        ranks = np.concatenate(
            [
                compute_ranks(
                    model, split_set.array, filter_triples=filter_triples, side=s
                )
                for s in sides
            ]
        )
    return RankingMetrics.from_ranks(ranks, hits_at=hits_at)


def generate_hard_negatives(
    graph: KnowledgeGraph,
    triples: np.ndarray,
    seed: int = 0,
    max_resample_rounds: int = 16,
) -> np.ndarray:
    """Type-consistent false triples, one per input triple.

    Mirrors the construction of CoDEx's *hard negatives* (paper §4.1.2):
    each positive's object is replaced by another entity drawn from the
    same relation's observed range, so the corruption is plausible on
    type grounds; corruptions that are actually true anywhere in the
    graph are resampled.

    Resampling is round-based and batched: each round draws one candidate
    per still-unresolved triple (grouped by relation so every group is a
    single vectorised draw) and rejects candidates that equal the true
    object or are known true, up to ``max_resample_rounds`` rounds.  The
    output is fully determined by ``seed`` — relation groups are visited
    in sorted order — though the draw sequence differs from the retired
    per-triple loop, so negatives are not bit-identical across versions.
    """
    rng = spawn_stream(seed)
    triples = np.asarray(triples, dtype=np.int64)
    known = graph.all_triples()
    fallback_pool = np.arange(graph.num_entities, dtype=np.int64)
    pools: dict[int, np.ndarray] = {}
    for r in graph.train.unique_relations():
        pool = np.unique(graph.train.by_relation(int(r))[:, 2])
        pools[int(r)] = pool if pool.size >= 2 else fallback_pool

    negatives = triples.copy()
    unresolved = np.arange(len(triples))
    for _ in range(max_resample_rounds):
        if unresolved.size == 0:
            break
        rel_of = triples[unresolved, 1]
        draws = np.empty(len(unresolved), dtype=np.int64)
        for rel in np.unique(rel_of):
            mask = rel_of == rel
            pool = pools.get(int(rel), fallback_pool)
            draws[mask] = pool[rng.integers(0, len(pool), size=int(mask.sum()))]
        accepted = draws != triples[unresolved, 2]
        proposals = np.stack([triples[unresolved, 0], rel_of, draws], axis=1)
        accepted &= ~known.contains(proposals)
        negatives[unresolved[accepted], 2] = draws[accepted]
        unresolved = unresolved[~accepted]
    if unresolved.size:
        # Fall back to a uniform corruption if the range is saturated.
        negatives[unresolved, 2] = rng.integers(
            0, graph.num_entities, size=len(unresolved)
        )
    return negatives


def triple_classification(
    model: KGEModel,
    graph: KnowledgeGraph,
    seed: int = 0,
    hard_negatives: bool = False,
) -> dict[str, float]:
    """Binary true/false triple classification accuracy.

    A global score threshold is tuned on the validation split (positives
    vs. corrupted negatives) and applied to the test split — the task the
    paper describes KGE models answering out of the box.  With
    ``hard_negatives`` the corruptions are type-consistent (CoDEx-style),
    which is substantially harder than uniform corruption.
    """
    rng = np.random.default_rng(seed)

    def corrupt(split: TripleSet) -> np.ndarray:
        if hard_negatives:
            return generate_hard_negatives(
                graph, split.array, seed=int(rng.integers(0, 2**31))
            )
        arr = split.array.copy()
        arr[:, 2] = rng.integers(0, graph.num_entities, size=len(arr))
        mask = graph.train.contains(arr)
        arr[mask, 2] = rng.integers(0, graph.num_entities, size=int(mask.sum()))
        return arr

    with no_grad():
        valid_pos = model.scores_spo(graph.valid.array)
        valid_neg = model.scores_spo(corrupt(graph.valid))
    candidates = np.unique(np.concatenate([valid_pos, valid_neg]))
    best_threshold, best_acc = 0.0, -1.0
    for threshold in candidates:
        acc = 0.5 * ((valid_pos >= threshold).mean() + (valid_neg < threshold).mean())
        if acc > best_acc:
            best_acc, best_threshold = acc, float(threshold)

    with no_grad():
        test_pos = model.scores_spo(graph.test.array)
        test_neg = model.scores_spo(corrupt(graph.test))
    accuracy = 0.5 * (
        (test_pos >= best_threshold).mean() + (test_neg < best_threshold).mean()
    )
    return {
        "threshold": best_threshold,
        "valid_accuracy": float(best_acc),
        "test_accuracy": float(accuracy),
    }
