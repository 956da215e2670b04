"""Hyperparameter-grid tests (the machinery behind Figures 7–10)."""

from __future__ import annotations

import pytest

from repro.discovery import discover_facts
from repro.experiments import (
    PAPER_MAX_CANDIDATES_GRID,
    PAPER_TOP_N_GRID,
    hyperparameter_grid,
)
from repro.kg import GraphStatistics
from repro.resilience import DeadlineExceededError


class TestPaperGrids:
    def test_values_match_section_431(self):
        assert PAPER_TOP_N_GRID == (100, 200, 300, 400, 500, 700)
        assert PAPER_MAX_CANDIDATES_GRID == (50, 100, 200, 300, 400, 500, 700)


class TestGrid:
    @pytest.fixture(scope="class")
    def points(self, trained_distmult, tiny_graph):
        return hyperparameter_grid(
            trained_distmult,
            tiny_graph,
            strategy="uniform_random",
            top_n_values=(5, 20),
            max_candidates_values=(25, 64),
            seed=0,
            stats=GraphStatistics(tiny_graph.train),
        )

    def test_full_grid_size(self, points):
        assert len(points) == 4

    def test_points_carry_parameters(self, points):
        combos = {(p.top_n, p.max_candidates) for p in points}
        assert combos == {(5, 25), (5, 64), (20, 25), (20, 64)}

    def test_more_top_n_never_fewer_facts(self, points):
        """§4.3.1: raising top_n only adds facts for fixed candidates."""
        by_candidates = {}
        for p in points:
            by_candidates.setdefault(p.max_candidates, {})[p.top_n] = p.num_facts
        for counts in by_candidates.values():
            assert counts[20] >= counts[5]

    def test_to_dict(self, points):
        data = points[0].to_dict()
        assert {"strategy", "top_n", "max_candidates", "mrr"} <= set(data)

    def test_points_run_max_candidates_major(self, points):
        assert [(p.top_n, p.max_candidates) for p in points] == [
            (5, 25), (20, 25), (5, 64), (20, 64),
        ]

    def test_each_point_equals_a_single_discovery_run(
        self, points, trained_distmult, tiny_graph
    ):
        stats = GraphStatistics(tiny_graph.train)
        for point in points:
            result = discover_facts(
                trained_distmult,
                tiny_graph,
                strategy="uniform_random",
                top_n=point.top_n,
                max_candidates=point.max_candidates,
                seed=0,
                stats=stats,
            )
            assert point.strategy == result.strategy
            assert point.num_facts == result.num_facts
            assert point.mrr == result.mrr()

    def test_summary_uses_canonical_keys(self, points):
        summary = points[0].summary()
        assert set(summary) == {
            "strategy", "top_n", "max_candidates", "facts_count", "mrr",
            "runtime_seconds", "efficiency_facts_per_hour",
        }
        assert summary["facts_count"] == points[0].num_facts


def test_generous_cell_deadline_leaves_points_unchanged(trained_distmult, tiny_graph):
    kwargs = dict(top_n_values=(5, 20), max_candidates_values=(25,), seed=4)
    plain = hyperparameter_grid(trained_distmult, tiny_graph, **kwargs)
    bounded = hyperparameter_grid(
        trained_distmult, tiny_graph, cell_deadline=600.0, **kwargs
    )
    assert [(p.top_n, p.num_facts, p.mrr) for p in bounded] == [
        (p.top_n, p.num_facts, p.mrr) for p in plain
    ]


def test_cell_deadline_overrun_raises(trained_distmult, tiny_graph):
    with pytest.raises(DeadlineExceededError):
        hyperparameter_grid(
            trained_distmult,
            tiny_graph,
            top_n_values=(5,),
            max_candidates_values=(25,),
            cell_deadline=1e-9,
        )
