"""Query-deduplicated batched ranking — the discovery hot path.

Algorithm 1 ranks mesh-grid candidates, and a mesh of ``sample_size``
subjects × ``sample_size`` objects shares only ``sample_size`` unique
``(s, r)`` queries: every candidate in a mesh row is a corruption of the
*same* 1-vs-all score row.  The legacy protocol
(:func:`repro.kge.evaluation.compute_ranks_reference`) nevertheless
computes a full ``(B, num_entities)`` score matrix with one row *per
candidate*, recomputing each shared row ~``sample_size`` times — exactly
the ranking cost the paper's efficiency (facts/hour) metric measures.

:class:`RankingEngine` removes that redundancy:

* **query dedup** — candidates are grouped by unique ``(s, r)`` (or
  ``(r, o)``) query; each unique query is scored once via
  ``scores_sp``/``scores_po`` and every candidate sharing it is ranked
  against the single row with sorted-row rank arithmetic;
* **indexed filtering** — the filtered protocol (Bordes et al., 2013)
  reads each unique query's known entities from the filter set's own
  sorted key index (:meth:`~repro.kg.triples.TripleSet.known_entities`),
  instead of the legacy per-row dict lookup + masking;
* **chunk arithmetic** — per chunk of unique queries, two
  ``searchsorted`` calls per row give the greater/equal counts, and the
  filter corrections are one vectorised pass over (candidate, known
  entity) pairs counted with ``np.bincount``;
* **score-row cache** — an optional bounded LRU (:class:`ScoreRowCache`)
  keyed by ``(model, side, s, r)`` lets a shared engine reuse rows
  across calls (anytime pulls, ``repro serve`` requests).  Within one
  call each unique query is scored once anyway, so a single-call engine
  needs no cache.

One engine may be shared by several caller threads (``repro serve``
keeps one per model): its counters and row cache are locked.

Ranks are bit-identical to the reference implementation: the tie-averaged
rank only needs the counts of strictly-greater and equal scores, and both
paths obtain them from exact float comparisons against the same row.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, fields
from threading import Lock

import numpy as np

from ..autograd import no_grad
from ..kg.triples import TripleSet
from ..obs import ReportableMixin, get_registry, span

__all__ = [
    "RankingEngine",
    "RankingStats",
    "ScoreRowCache",
    "ranking_stat_key",
]

_SIDES = ("object", "subject")


class ScoreRowCache:
    """Thread-safe bounded LRU of 1-vs-all score rows.

    Keys are ``(model_key, side, a, b)`` tuples; values are
    ``(row, sorted_row)`` pairs so reuse also skips the re-sort.  The
    model key is ``id(model)``, which is only meaningful while the model
    is frozen — training updates embeddings in place and would make
    cached rows stale, so engines with a cache must not be shared across
    optimizer steps (call :meth:`clear` after any parameter update).
    """

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError(f"cache maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._rows: OrderedDict[tuple, tuple[np.ndarray, np.ndarray]] = OrderedDict()
        self._lock = Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._rows)

    def get(self, key: tuple) -> tuple[np.ndarray, np.ndarray] | None:
        with self._lock:
            value = self._rows.get(key)
            if value is not None:
                self._rows.move_to_end(key)
            return value

    def put(self, key: tuple, value: tuple[np.ndarray, np.ndarray]) -> None:
        with self._lock:
            self._rows[key] = value
            self._rows.move_to_end(key)
            while len(self._rows) > self.maxsize:
                self._rows.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._rows.clear()


def ranking_stat_key(name: str) -> str:
    """Canonical summary key of a :class:`RankingStats` field.

    ``*_seconds`` fields keep their name; every other field is a count
    and gets a ``_count`` suffix.
    """
    return name if name.endswith("_seconds") else f"{name}_count"


@dataclass
class RankingStats(ReportableMixin):
    """Cumulative instrumentation counters of a :class:`RankingEngine`.

    ``rows_scored`` counts 1-vs-all rows actually computed by the model;
    ``rows_reused`` counts candidates served without a fresh model call
    (query dedup within a call plus cache hits across calls);
    ``cache_hits`` counts unique queries answered from the cache.
    ``score_seconds`` covers model scoring only; ``filter_seconds``
    covers looking up each unique query's known entities in the filter
    set's index.
    """

    candidates_ranked: int = 0
    unique_queries: int = 0
    rows_scored: int = 0
    rows_reused: int = 0
    cache_hits: int = 0
    score_seconds: float = 0.0
    filter_seconds: float = 0.0

    def summary(self) -> dict[str, float]:
        """Counters under canonical ``*_count``/``*_seconds`` names
        (:func:`ranking_stat_key`); :meth:`to_dict` keeps field names."""
        return {ranking_stat_key(k): v for k, v in self.to_dict().items()}

    def to_dict(self) -> dict[str, float]:
        """Field-named payload — the shape :meth:`from_dict` reconstructs."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict[str, float]) -> "RankingStats":
        """Rebuild from :meth:`to_dict` output (field names only)."""
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown RankingStats keys: {sorted(unknown)}")
        return cls(**data)


def _chunk_ranks(
    rows: np.ndarray,
    sorted_rows: np.ndarray,
    local: np.ndarray,
    offsets: np.ndarray,
    target_ids: np.ndarray,
    known: tuple[np.ndarray, np.ndarray, np.ndarray] | None,
) -> np.ndarray:
    """Tie-averaged ranks of one chunk's candidates against their rows.

    ``rows``/``sorted_rows`` hold the chunk's score rows and their sorts.
    Candidate ``i`` ranks ``target_ids[i]`` against row ``local[i]``, and
    row ``u``'s candidates are ``offsets[u]:offsets[u + 1]``.  ``known``
    is ``(entities, starts, stops)``: row ``u``'s known true entities are
    ``entities[starts[u]:stops[u]]``, and the filtered protocol removes
    them from both counts, restoring the target itself.
    """
    target_scores = rows[local, target_ids]
    # Two binary searches per row give every candidate's counts of
    # greater and equal scores; they are the only per-row work.
    pos_right = np.empty(len(local), dtype=np.int64)
    pos_left = np.empty(len(local), dtype=np.int64)
    bounds = offsets.tolist()
    for row, start, stop in zip(sorted_rows, bounds[:-1], bounds[1:]):
        scores = target_scores[start:stop]
        pos_right[start:stop] = row.searchsorted(scores, "right")
        pos_left[start:stop] = row.searchsorted(scores, "left")
    greater = rows.shape[1] - pos_right
    equal = pos_right - pos_left
    if known is not None:
        # One (candidate, known entity) pair per known entity of each
        # candidate's row, compared exactly against the target score.
        entities, starts, stops = known
        lengths = (stops - starts)[local]
        pair = np.arange(len(local)).repeat(lengths)
        shift = starts[local] - (lengths.cumsum() - lengths)
        pair_entities = entities[np.arange(len(pair)) + shift[pair]]
        pair_scores = rows[local[pair], pair_entities]
        bar = target_scores[pair]
        # Known entities leave both counts, except that a known target's
        # own entry ties its score and stays, as the reference restores it.
        tied = (pair_scores == bar) & (pair_entities != target_ids[pair])
        greater = greater - np.bincount(pair[pair_scores > bar], minlength=len(local))
        equal = equal - np.bincount(pair[tied], minlength=len(local))
    return greater + (equal - 1) / 2.0 + 1.0


class RankingEngine:
    """Deduplicated, cached 1-vs-all ranking.

    Parameters
    ----------
    cache_size:
        Rows kept in the LRU score cache; ``0`` disables caching.  Each
        row costs ``2 · num_entities`` float64s (raw + sorted).
    chunk_size:
        Unique queries scored per vectorised model call, bounding peak
        memory at ``O(chunk_size · num_entities)``.
    """

    def __init__(self, cache_size: int = 0, chunk_size: int = 512) -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.cache = ScoreRowCache(cache_size) if cache_size else None
        self.chunk_size = chunk_size
        self.stats = RankingStats()
        # One engine may serve concurrent compute_ranks calls; the lock
        # keeps the counters coherent.
        self._stats_lock = Lock()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        """Zero the cumulative counters (the cache is left intact)."""
        with self._stats_lock:
            self.stats = RankingStats()

    def compute_ranks(
        self,
        model,
        triples: np.ndarray,
        filter_triples: TripleSet | None = None,
        side: str = "object",
    ) -> np.ndarray:
        """Tie-averaged ranks, bit-identical to the reference protocol.

        See :func:`repro.kge.evaluation.compute_ranks` for the parameter
        contract; this entry point additionally deduplicates queries
        and consults the row cache.
        """
        if side not in _SIDES:
            raise ValueError(f"side must be one of {_SIDES}, got {side!r}")
        triples = np.asarray(triples, dtype=np.int64)
        if triples.size == 0:
            return np.zeros(0)
        with no_grad():
            return self._compute(model, triples, filter_triples, side)

    # ------------------------------------------------------------------
    # Core
    # ------------------------------------------------------------------
    def _compute(
        self,
        model,
        triples: np.ndarray,
        filter_triples: TripleSet | None,
        side: str,
    ) -> np.ndarray:
        if side == "object":
            a, b, targets = triples[:, 0], triples[:, 1], triples[:, 2]
            radix = getattr(model, "num_relations", None)
        else:
            a, b, targets = triples[:, 1], triples[:, 2], triples[:, 0]
            radix = getattr(model, "num_entities", None)
        # Scripted test doubles may lack the id-space attributes; any
        # radix beyond the observed ids keeps the key encoding injective.
        if radix is None:
            radix = int(b.max()) + 1

        qkeys = a * np.int64(radix) + b
        unique_keys, first, inverse = np.unique(
            qkeys, return_index=True, return_inverse=True
        )
        num_unique = len(unique_keys)
        ua, ub = a[first], b[first]

        # Candidates grouped by query: order[bounds[u]:bounds[u+1]] are
        # the positions of query u's candidates in the input.
        order = inverse.argsort(kind="stable")
        sorted_inverse = inverse[order]
        bounds = sorted_inverse.searchsorted(np.arange(num_unique + 1))

        with self._stats_lock:
            self.stats.candidates_ranked += len(triples)
            self.stats.unique_queries += num_unique

        known = None
        if filter_triples is not None:
            with span("rank.filter") as filter_span:
                known = filter_triples.known_entities(ua, ub, side)
            with self._stats_lock:
                self.stats.filter_seconds += filter_span.wall_seconds

        ranks = np.zeros(len(triples))
        scored = hits = 0
        for lo in range(0, num_unique, self.chunk_size):
            hi = min(lo + self.chunk_size, num_unique)
            rows, sorted_rows, chunk_scored, chunk_hits = self._load_chunk(
                model, side, ua, ub, lo, hi
            )
            scored += chunk_scored
            hits += chunk_hits
            with span("rank.count"):
                cand = order[bounds[lo] : bounds[hi]]
                local = sorted_inverse[bounds[lo] : bounds[hi]] - lo
                offsets = bounds[lo : hi + 1] - bounds[lo]
                chunk_known = None
                if known is not None:
                    entities, starts, stops = known
                    chunk_known = (entities, starts[lo:hi], stops[lo:hi])
                ranks[cand] = _chunk_ranks(
                    rows, sorted_rows, local, offsets, targets[cand], chunk_known
                )
        # Candidates served without a fresh model call: query dedup
        # within this call plus cache hits carried over from earlier ones.
        reused = len(triples) - scored
        with self._stats_lock:
            self.stats.rows_reused += reused
        registry = get_registry()
        if registry.enabled:
            registry.counter("rank.candidates_ranked_count").inc(len(triples))
            registry.counter("rank.unique_queries_count").inc(num_unique)
            registry.counter("rank.rows_scored_count").inc(scored)
            registry.counter("rank.cache_hits_count").inc(hits)
            registry.counter("rank.rows_reused_count").inc(reused)
        return ranks

    # ------------------------------------------------------------------
    # Row production: cache + chunked scoring
    # ------------------------------------------------------------------
    def _load_chunk(
        self, model, side: str, ua: np.ndarray, ub: np.ndarray, lo: int, hi: int
    ) -> tuple[np.ndarray, np.ndarray, int, int]:
        """Score rows for unique queries ``[lo, hi)``, consulting the cache.

        Returns ``(rows, sorted_rows, scored, hits)`` and adds the chunk
        to the engine's counters.
        """
        size = hi - lo
        if self.cache is None:
            rows = self._score(model, side, ua[lo:hi], ub[lo:hi])
            return rows, np.sort(rows, axis=1), size, 0
        rows: list[np.ndarray | None] = [None] * size
        sorted_rows: list[np.ndarray | None] = [None] * size
        missing: list[int] = []
        for i in range(size):
            key = (id(model), side, int(ua[lo + i]), int(ub[lo + i]))
            hit = self.cache.get(key)
            if hit is not None:
                rows[i], sorted_rows[i] = hit
            else:
                missing.append(i)
        if missing:
            idx = lo + np.asarray(missing, dtype=np.int64)
            scored = self._score(model, side, ua[idx], ub[idx])
            scored_sorted = np.sort(scored, axis=1)
            for j, i in enumerate(missing):
                rows[i] = scored[j]
                sorted_rows[i] = scored_sorted[j]
                key = (id(model), side, int(ua[lo + i]), int(ub[lo + i]))
                self.cache.put(key, (scored[j], scored_sorted[j]))
            if len(missing) == size:
                return scored, scored_sorted, size, 0
        hits = size - len(missing)
        with self._stats_lock:
            self.stats.cache_hits += hits
        return np.stack(rows), np.stack(sorted_rows), len(missing), hits

    def _score(self, model, side: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """1-vs-all score rows of the queries ``(a, b)``, one per row."""
        with span("rank.score") as score_span:
            with no_grad():
                if side == "object":
                    rows = model.scores_sp(a, b)
                else:
                    rows = model.scores_po(a, b)
        with self._stats_lock:
            self.stats.rows_scored += len(a)
            self.stats.score_seconds += score_span.wall_seconds
        return np.asarray(rows)
