"""Equivalence and instrumentation suite for :mod:`repro.kge.ranking`.

The engine must produce **bit-identical** rank vectors to the legacy
chunked path (:func:`compute_ranks_reference`) across models, sides and
filter settings, while scoring at most one 1-vs-all row per unique
query.  ConvE is evaluated in ``eval()`` mode so batch norm uses running
statistics and dropout is disabled — in training mode its scores depend
on batch composition, which no dedup scheme can preserve.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.kg import KGProfile, generate_kg
from repro.kge import (
    GroupedFilter,
    RankingEngine,
    ScoreRowCache,
    compute_ranks,
    create_model,
)
from repro.kge.base import KGEModel
from repro.kge.evaluation import compute_ranks_reference

#: The paper's model families the equivalence suite runs over.
MODELS = ("transe", "distmult", "complex", "rescal", "conve")


@pytest.fixture(scope="module")
def kg():
    """A small synthetic KG with skewed popularity (realistic meshes)."""
    return generate_kg(
        KGProfile(
            name="rank-eq",
            num_entities=30,
            num_relations=4,
            num_triples=200,
            num_types=3,
            popularity_exponent=0.8,
            triangle_closure_prob=0.2,
            seed=5,
        )
    )


@pytest.fixture(scope="module")
def candidates(kg):
    """Mesh-grid candidates (heavy query duplication) plus random extras."""
    rng = np.random.default_rng(0)
    subjects = rng.integers(0, kg.num_entities, 12)
    objects = rng.integers(0, kg.num_entities, 12)
    s_grid, o_grid = np.meshgrid(subjects, objects, indexing="ij")
    mesh = np.stack(
        [s_grid.ravel(), np.full(s_grid.size, 2, dtype=np.int64), o_grid.ravel()],
        axis=1,
    )
    extra = np.stack(
        [
            rng.integers(0, kg.num_entities, 60),
            rng.integers(0, kg.num_relations, 60),
            rng.integers(0, kg.num_entities, 60),
        ],
        axis=1,
    )
    return np.concatenate([mesh, extra])


def make_model(name: str, kg) -> KGEModel:
    model = create_model(name, kg.num_entities, kg.num_relations, dim=16, seed=3)
    model.eval()
    return model


class ScriptedModel(KGEModel):
    """Explicit score table — used to manufacture exact ties."""

    def __init__(self, num_entities: int, num_relations: int, table: np.ndarray):
        super().__init__(num_entities, num_relations, dim=2, seed=0)
        self.table = table

    def score_spo(self, s, r, o):
        return Tensor(self.table[s, r, o])

    def score_sp(self, s, r):
        return Tensor(self.table[s, r, :])

    def score_po(self, r, o):
        return Tensor(self.table[:, r, o].T)


class TestEquivalence:
    @pytest.mark.parametrize("name", MODELS)
    @pytest.mark.parametrize("side", ["object", "subject"])
    @pytest.mark.parametrize("filtered", [False, True])
    def test_engine_matches_reference(self, kg, candidates, name, side, filtered):
        model = make_model(name, kg)
        filter_triples = kg.train if filtered else None
        engine = RankingEngine()
        got = engine.compute_ranks(
            model, candidates, filter_triples=filter_triples, side=side
        )
        want = compute_ranks_reference(
            model, candidates, filter_triples=filter_triples, side=side
        )
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("filtered", [False, True])
    def test_ties_match_reference(self, kg, filtered):
        """Integer score tables force heavy ties; tie-averaging must agree."""
        rng = np.random.default_rng(1)
        table = rng.integers(0, 4, size=(30, 4, 30)).astype(np.float64)
        model = ScriptedModel(30, 4, table)
        cands = np.stack(
            [
                rng.integers(0, 30, 300),
                rng.integers(0, 4, 300),
                rng.integers(0, 30, 300),
            ],
            axis=1,
        )
        filter_triples = kg.train if filtered else None
        for side in ("object", "subject"):
            got = RankingEngine().compute_ranks(
                model, cands, filter_triples=filter_triples, side=side
            )
            want = compute_ranks_reference(
                model, cands, filter_triples=filter_triples, side=side
            )
            np.testing.assert_array_equal(got, want)

    def test_compute_ranks_delegates_to_engine(self, kg, candidates):
        """The public compute_ranks entry point is the engine path."""
        model = make_model("distmult", kg)
        via_default = compute_ranks(
            model, candidates, filter_triples=kg.train, side="object"
        )
        via_reference = compute_ranks_reference(
            model, candidates, filter_triples=kg.train, side="object"
        )
        np.testing.assert_array_equal(via_default, via_reference)

    def test_small_chunks_match_single_batch(self, kg, candidates):
        model = make_model("transe", kg)
        big = RankingEngine(chunk_size=4096).compute_ranks(
            model, candidates, filter_triples=kg.train
        )
        small = RankingEngine(chunk_size=3).compute_ranks(
            model, candidates, filter_triples=kg.train
        )
        np.testing.assert_array_equal(big, small)

    def test_empty_input(self, kg):
        model = make_model("distmult", kg)
        assert RankingEngine().compute_ranks(model, np.zeros((0, 3))).shape == (0,)

    def test_invalid_side(self, kg):
        model = make_model("distmult", kg)
        with pytest.raises(ValueError):
            RankingEngine().compute_ranks(
                model, np.asarray([[0, 0, 1]]), side="diagonal"
            )


class TestDeterminismAndWorkers:
    def test_workers_match_single_thread(self, kg, candidates):
        model = make_model("distmult", kg)
        single = RankingEngine(workers=1, chunk_size=16).compute_ranks(
            model, candidates, filter_triples=kg.train
        )
        threaded = RankingEngine(workers=4, chunk_size=16).compute_ranks(
            model, candidates, filter_triples=kg.train
        )
        np.testing.assert_array_equal(single, threaded)

    def test_workers_with_cache_match(self, kg, candidates):
        model = make_model("complex", kg)
        engine = RankingEngine(workers=4, chunk_size=8, cache_size=32)
        first = engine.compute_ranks(model, candidates, filter_triples=kg.train)
        second = engine.compute_ranks(model, candidates, filter_triples=kg.train)
        np.testing.assert_array_equal(first, second)


class TestInstrumentation:
    def test_mesh_dedup_scores_fewer_rows_than_candidates(self, kg):
        """Tier-1 smoke: on a mesh workload the engine computes one row
        per unique query — at least 5× fewer rows than candidates."""
        model = make_model("distmult", kg)
        subjects = np.arange(10)
        objects = np.arange(10, 20)
        s_grid, o_grid = np.meshgrid(subjects, objects, indexing="ij")
        mesh = np.stack(
            [s_grid.ravel(), np.zeros(s_grid.size, dtype=np.int64), o_grid.ravel()],
            axis=1,
        )
        engine = RankingEngine()
        engine.compute_ranks(model, mesh, filter_triples=kg.train)
        assert engine.stats.rows_scored == engine.stats.unique_queries == 10
        assert engine.stats.rows_scored < len(mesh)
        assert engine.stats.rows_scored * 5 <= len(mesh)
        assert engine.stats.rows_reused == len(mesh) - engine.stats.rows_scored
        assert engine.stats.candidates_ranked == len(mesh)

    def test_cache_reuses_rows_across_calls(self, kg, candidates):
        model = make_model("distmult", kg)
        engine = RankingEngine(cache_size=256)
        engine.compute_ranks(model, candidates, filter_triples=kg.train)
        scored_first = engine.stats.rows_scored
        assert scored_first > 0
        engine.compute_ranks(model, candidates, filter_triples=kg.train)
        assert engine.stats.rows_scored == scored_first  # all served by cache
        assert engine.stats.cache_hits == scored_first

    def test_reset_stats(self, kg, candidates):
        model = make_model("distmult", kg)
        engine = RankingEngine()
        engine.compute_ranks(model, candidates)
        assert engine.stats.candidates_ranked > 0
        engine.reset_stats()
        assert engine.stats.candidates_ranked == 0

    def test_stats_as_dict_keys(self):
        stats = RankingEngine().stats
        assert set(stats.as_dict()) == {
            "candidates_ranked",
            "unique_queries",
            "rows_scored",
            "rows_reused",
            "cache_hits",
            "score_seconds",
            "filter_seconds",
        }

    def test_merge_adds_every_counter(self):
        from repro.kge.ranking import RankingStats

        total = RankingStats(candidates_ranked=3, rows_scored=2, score_seconds=0.5)
        total.merge(
            RankingStats(candidates_ranked=4, cache_hits=1, score_seconds=0.25)
        )
        assert total.to_dict() == {
            "candidates_ranked": 7,
            "unique_queries": 0,
            "rows_scored": 2,
            "rows_reused": 0,
            "cache_hits": 1,
            "score_seconds": 0.75,
            "filter_seconds": 0.0,
        }


class TestScoreRowCache:
    def test_lru_eviction(self):
        cache = ScoreRowCache(maxsize=2)
        row = np.zeros(3)
        cache.put(("a",), (row, row))
        cache.put(("b",), (row, row))
        cache.get(("a",))  # refresh "a" so "b" is evicted next
        cache.put(("c",), (row, row))
        assert cache.get(("a",)) is not None
        assert cache.get(("b",)) is None
        assert cache.get(("c",)) is not None
        assert len(cache) == 2

    def test_invalid_maxsize(self):
        with pytest.raises(ValueError):
            ScoreRowCache(maxsize=0)

    def test_clear(self):
        cache = ScoreRowCache(maxsize=4)
        cache.put(("a",), (np.zeros(2), np.zeros(2)))
        cache.clear()
        assert len(cache) == 0


class TestGroupedFilter:
    @pytest.mark.parametrize("side", ["object", "subject"])
    def test_matches_dict_index(self, kg, side):
        grouped = GroupedFilter(kg.train, side)
        index = kg.train.sp_index() if side == "object" else kg.train.po_index()
        pairs = np.asarray(sorted(index), dtype=np.int64)
        starts, stops = grouped.segments(
            grouped.query_keys(pairs[:, 0], pairs[:, 1])
        )
        for (pair, start, stop) in zip(map(tuple, pairs), starts, stops):
            np.testing.assert_array_equal(
                grouped.entities[start:stop], np.sort(index[pair])
            )

    def test_unknown_query_has_empty_segment(self, kg):
        grouped = GroupedFilter(kg.train, "object")
        # A query key beyond every real key: empty slice, no KeyError.
        starts, stops = grouped.segments(np.asarray([np.iinfo(np.int64).max]))
        assert starts[0] == stops[0]

    def test_invalid_side(self, kg):
        with pytest.raises(ValueError):
            GroupedFilter(kg.train, "diagonal")


class TestEngineValidation:
    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            RankingEngine(workers=0)

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError):
            RankingEngine(chunk_size=0)


class TestScorePoFallback:
    def test_tiled_fallback_matches_per_row_loop(self, kg):
        """ConvE has no score_po override — the generic tiled fallback
        must equal scoring each (entity, r, o) row individually."""
        model = make_model("conve", kg)
        rng = np.random.default_rng(2)
        r = rng.integers(0, kg.num_relations, 5)
        o = rng.integers(0, kg.num_entities, 5)
        fallback = model.scores_po(r, o)
        assert fallback.shape == (5, kg.num_entities)
        entities = np.arange(kg.num_entities, dtype=np.int64)
        for i in range(5):
            per_row = model.scores_spo(
                np.stack(
                    [entities, np.full_like(entities, r[i]), np.full_like(entities, o[i])],
                    axis=1,
                )
            )
            # The tiled batch flows through BLAS with different blocking
            # than N single-query rows; accumulation order differs at the
            # last few ulps, so exact equality is not required here.
            np.testing.assert_allclose(fallback[i], per_row, rtol=1e-10)
