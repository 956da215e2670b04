"""Ranking engine — query deduplication vs the legacy per-candidate path.

Algorithm 1's mesh-grid candidates share only ~``⌊√max_candidates⌋ + 10``
unique ``(s, r)`` queries per relation, so the legacy chunked path
(:func:`repro.kge.evaluation.compute_ranks_reference`) recomputes each shared
1-vs-all score row ~``sample_size`` times.  :class:`repro.kge.RankingEngine`
scores every unique query exactly once and reuses the row for all of its
candidates.  This benchmark verifies the two paths are *bit-identical*
on real discovery workloads while the engine:

* scores ``rows_scored == unique_queries`` rows, at least 5× fewer than
  the candidate count on mesh-grid workloads;
* improves ``discover_facts`` end-to-end wall-clock with the same seed
  producing the same facts and ranks.

Beyond the usual table, the measurements are written to
``benchmarks/results/BENCH_ranking.json`` so the dedup ratios and
speedups are tracked as a committed artefact.
"""

from __future__ import annotations

import json
import time

import numpy as np
from common import (
    MAX_CANDIDATES_DEFAULT,
    RESULTS_DIR,
    TOP_N_DEFAULT,
    save_and_print,
)

from repro.discovery import discover_facts
from repro.experiments import format_table, get_trained_model
from repro.kg import load_dataset
from repro.kge import RankingEngine, RankingStats
from repro.kge.evaluation import compute_ranks_reference


class _ReferenceEngine:
    """Duck-typed engine adapter running the legacy chunked path.

    ``discover_facts`` needs ``compute_ranks`` and a ``stats`` counter
    set to take its per-run delta from; the legacy path counts nothing,
    so its counters stay zero.
    """

    def __init__(self) -> None:
        self.stats = RankingStats()

    def compute_ranks(self, model, triples, filter_triples=None, side="object"):
        return compute_ranks_reference(
            model, triples, filter_triples=filter_triples, side=side
        )


def _mesh(num_entities: int, side: int, relation: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    subjects = rng.choice(num_entities, size=side, replace=False)
    objects = rng.choice(num_entities, size=side, replace=False)
    s_grid, o_grid = np.meshgrid(subjects, objects, indexing="ij")
    out = np.empty((s_grid.size, 3), dtype=np.int64)
    out[:, 0] = s_grid.ravel()
    out[:, 1] = relation
    out[:, 2] = o_grid.ravel()
    return out


def _time(fn, repeats: int = 3) -> tuple[float, object]:
    """Best-of-N wall-clock and the last return value."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


def test_ranking_engine(benchmark):
    graph = load_dataset("fb15k237-like")
    model = get_trained_model("fb15k237-like", "transe", graph=graph)
    payload: dict[str, object] = {
        "dataset": "fb15k237-like",
        "model": "transe",
        "top_n": TOP_N_DEFAULT,
        "max_candidates": MAX_CANDIDATES_DEFAULT,
    }

    # --- Microbenchmark: raw compute_ranks on pure mesh-grid workloads.
    mesh_rows = []
    for side in (8, 16, 32):
        cands = _mesh(graph.num_entities, side, relation=0, seed=side)
        engine = RankingEngine()

        def run_engine():
            engine.reset_stats()  # counters cover the last repeat only
            return engine.compute_ranks(model, cands, filter_triples=graph.train)

        engine_s, engine_ranks = _time(run_engine)
        reference_s, reference_ranks = _time(
            lambda: compute_ranks_reference(
                model, cands, filter_triples=graph.train
            )
        )
        np.testing.assert_array_equal(engine_ranks, reference_ranks)
        stats = engine.stats
        assert stats.rows_scored <= stats.unique_queries
        assert stats.rows_scored * 5 <= len(cands)
        mesh_rows.append(
            {
                "mesh": f"{side}x{side}",
                "candidates": len(cands),
                "unique_queries": stats.unique_queries,
                "rows_scored": stats.rows_scored,
                "rows_reused": stats.rows_reused,
                "engine_s": round(engine_s, 4),
                "reference_s": round(reference_s, 4),
                "speedup": round(reference_s / engine_s, 2),
            }
        )

    # --- End-to-end: discover_facts through the engine vs the legacy path.
    kwargs = dict(
        strategy="entity_frequency",
        top_n=TOP_N_DEFAULT,
        max_candidates=MAX_CANDIDATES_DEFAULT,
        seed=0,
    )
    reference_s, reference = _time(
        lambda: discover_facts(model, graph, engine=_ReferenceEngine(), **kwargs)
    )
    engine_s, result = _time(lambda: discover_facts(model, graph, **kwargs))
    benchmark.pedantic(
        lambda: discover_facts(model, graph, **kwargs), rounds=3, iterations=1
    )

    # Same seed ⇒ same facts and ranks, regardless of the ranking path.
    np.testing.assert_array_equal(result.facts, reference.facts)
    np.testing.assert_array_equal(result.ranks, reference.ranks)

    counters = result.ranking_stats
    assert counters["rows_scored"] <= counters["unique_queries"]
    assert counters["rows_scored"] * 5 <= result.candidates_generated
    assert engine_s < reference_s

    e2e_rows = [
        {
            "path": "RankingEngine",
            "candidates": result.candidates_generated,
            "unique_queries": counters["unique_queries"],
            "rows_scored": counters["rows_scored"],
            "rows_reused": counters["rows_reused"],
            "runtime_s": round(engine_s, 3),
        },
        {
            "path": "reference (per-candidate)",
            "candidates": reference.candidates_generated,
            "unique_queries": "-",
            "rows_scored": reference.candidates_generated,
            "rows_reused": 0,
            "runtime_s": round(reference_s, 3),
        },
    ]

    payload["mesh_compute_ranks"] = mesh_rows
    payload["discover_facts"] = {
        "engine_seconds": engine_s,
        "reference_seconds": reference_s,
        "speedup": reference_s / engine_s,
        "candidates_generated": result.candidates_generated,
        "num_facts": result.num_facts,
        "identical_facts_and_ranks": True,
        "ranking_stats": counters,
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "BENCH_ranking.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    save_and_print(
        "ranking_engine",
        format_table(
            mesh_rows,
            title="compute_ranks on mesh-grid candidates "
            "(fb15k237-like, transe, filtered; best of 3)",
        )
        + "\n\n"
        + format_table(
            e2e_rows,
            title=f"discover_facts end-to-end (entity_frequency, "
            f"top_n={TOP_N_DEFAULT}, max_candidates={MAX_CANDIDATES_DEFAULT}, "
            f"seed=0; best of 3)",
        ),
    )
