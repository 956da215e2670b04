"""Graph-statistics tests against hand-computed values and networkx."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.kg import (
    GraphStatistics,
    TripleSet,
    degrees,
    entity_frequency,
    global_clustering_coefficient,
    local_clustering_coefficient,
    local_triangles,
    side_entities,
    square_clustering,
    undirected_adjacency,
)
from repro.kg.stats import OBJECT, SUBJECT


class TestAdjacency:
    def test_triangle_graph(self, triangle_triples):
        adj = undirected_adjacency(triangle_triples)
        assert adj.shape == (3, 3)
        np.testing.assert_array_equal(degrees(adj), [2, 2, 2])

    def test_symmetric(self, triangle_triples):
        adj = undirected_adjacency(triangle_triples)
        assert (adj != adj.T).nnz == 0

    def test_self_loops_dropped(self):
        ts = TripleSet(np.asarray([[0, 0, 0], [0, 0, 1]]), 3, 1)
        adj = undirected_adjacency(ts)
        assert adj.diagonal().sum() == 0
        np.testing.assert_array_equal(degrees(adj), [1, 1, 0])

    def test_parallel_edges_collapse(self):
        # Same undirected edge via two relations and both directions.
        ts = TripleSet(np.asarray([[0, 0, 1], [1, 1, 0]]), 2, 2)
        adj = undirected_adjacency(ts)
        np.testing.assert_array_equal(degrees(adj), [1, 1])


class TestEntityFrequency:
    def test_subject_counts(self):
        ts = TripleSet(np.asarray([[0, 0, 1], [0, 0, 2], [1, 0, 0]]), 3, 1)
        np.testing.assert_array_equal(entity_frequency(ts, SUBJECT), [2, 1, 0])
        np.testing.assert_array_equal(entity_frequency(ts, OBJECT), [1, 1, 1])

    def test_invalid_side(self):
        ts = TripleSet(np.asarray([[0, 0, 1]]), 2, 1)
        with pytest.raises(ValueError):
            entity_frequency(ts, "sideways")

    def test_side_entities(self):
        ts = TripleSet(np.asarray([[0, 0, 1], [0, 0, 2]]), 4, 1)
        np.testing.assert_array_equal(side_entities(ts, SUBJECT), [0])
        np.testing.assert_array_equal(side_entities(ts, OBJECT), [1, 2])

    def test_side_entities_invalid_side(self):
        ts = TripleSet(np.asarray([[0, 0, 1]]), 2, 1)
        with pytest.raises(ValueError, match="side must be one of"):
            side_entities(ts, "sideways")


class TestTriangles:
    def test_triangle_graph_has_one_per_node(self, triangle_triples):
        adj = undirected_adjacency(triangle_triples)
        np.testing.assert_array_equal(local_triangles(adj), [1, 1, 1])

    def test_star_graph_has_none(self, star_triples):
        adj = undirected_adjacency(star_triples)
        np.testing.assert_array_equal(local_triangles(adj), [0, 0, 0, 0, 0])

    def test_square_graph_has_none(self, square_triples):
        adj = undirected_adjacency(square_triples)
        np.testing.assert_array_equal(local_triangles(adj), [0, 0, 0, 0])

    def test_k4_has_three_per_node(self):
        edges = [[a, 0, b] for a in range(4) for b in range(4) if a < b]
        ts = TripleSet(np.asarray(edges), 4, 1)
        adj = undirected_adjacency(ts)
        np.testing.assert_array_equal(local_triangles(adj), [3, 3, 3, 3])


class TestClusteringCoefficient:
    def test_triangle_graph_is_fully_clustered(self, triangle_triples):
        adj = undirected_adjacency(triangle_triples)
        np.testing.assert_allclose(local_clustering_coefficient(adj), 1.0)

    def test_star_hub_is_zero(self, star_triples):
        """The paper's example: a star hub is popular but has c(v) = 0."""
        adj = undirected_adjacency(star_triples)
        coeff = local_clustering_coefficient(adj)
        assert coeff[0] == 0.0
        np.testing.assert_array_equal(coeff[1:], 0.0)  # leaves: deg < 2

    def test_global_average(self, triangle_triples):
        adj = undirected_adjacency(triangle_triples)
        assert global_clustering_coefficient(adj) == pytest.approx(1.0)


class TestSquareClustering:
    def test_square_graph(self, square_triples):
        """On a plain 4-cycle each node has c₄ determined by one square."""
        adj = undirected_adjacency(square_triples)
        mine = square_clustering(adj)
        reference = nx.square_clustering(nx.from_scipy_sparse_array(adj))
        np.testing.assert_allclose(mine, [reference[i] for i in range(4)])

    def test_matches_networkx_on_random_graph(self):
        rng = np.random.default_rng(0)
        triples = np.stack(
            [rng.integers(0, 30, 120), np.zeros(120, np.int64), rng.integers(0, 30, 120)],
            axis=1,
        )
        ts = TripleSet(triples, 30, 1)
        adj = undirected_adjacency(ts)
        mine = square_clustering(adj)
        reference = nx.square_clustering(nx.from_scipy_sparse_array(adj))
        np.testing.assert_allclose(mine, [reference[i] for i in range(30)], atol=1e-12)


class TestBackendsAgree:
    @pytest.mark.parametrize("metric", ["triangles", "clustering_coefficient"])
    def test_networkx_vs_sparse(self, small_graph, metric):
        a = GraphStatistics(small_graph.train, backend="networkx")
        b = GraphStatistics(small_graph.train, backend="sparse")
        np.testing.assert_allclose(getattr(a, metric), getattr(b, metric))

    def test_squares_agree_on_tiny(self, tiny_graph):
        a = GraphStatistics(tiny_graph.train, backend="networkx")
        b = GraphStatistics(tiny_graph.train, backend="sparse")
        np.testing.assert_allclose(a.squares_clustering, b.squares_clustering, atol=1e-12)


class TestGraphStatistics:
    def test_caching_returns_same_object(self, tiny_graph):
        stats = GraphStatistics(tiny_graph.train)
        assert stats.triangles is stats.triangles
        assert stats.clustering_coefficient is stats.clustering_coefficient

    def test_invalid_backend(self, tiny_graph):
        with pytest.raises(ValueError):
            GraphStatistics(tiny_graph.train, backend="gpu")

    def test_frequency_matches_free_function(self, tiny_graph):
        stats = GraphStatistics(tiny_graph.train)
        np.testing.assert_array_equal(
            stats.subject_frequency, entity_frequency(tiny_graph.train, SUBJECT)
        )
        np.testing.assert_array_equal(
            stats.object_frequency, entity_frequency(tiny_graph.train, OBJECT)
        )

    def test_average_clustering_in_unit_interval(self, tiny_graph):
        stats = GraphStatistics(tiny_graph.train)
        assert 0.0 <= stats.average_clustering <= 1.0

    def test_degree_sums_to_twice_edges(self, tiny_graph):
        stats = GraphStatistics(tiny_graph.train)
        assert stats.degree.sum() == stats.adjacency.nnz


class TestAsArray:
    def test_matches_per_node_python_loop(self, tiny_graph):
        stats = GraphStatistics(tiny_graph.train)
        rng = np.random.default_rng(13)
        nodes = rng.choice(tiny_graph.num_entities, size=17, replace=False)
        mapping = {int(node): float(rng.standard_normal()) for node in nodes}

        reference = np.zeros(tiny_graph.num_entities, dtype=np.float64)
        for node, value in mapping.items():
            reference[node] = value
        np.testing.assert_array_equal(stats._as_array(mapping), reference)

    def test_empty_mapping_gives_zeros(self, tiny_graph):
        stats = GraphStatistics(tiny_graph.train)
        out = stats._as_array({})
        assert out.shape == (tiny_graph.num_entities,)
        assert out.dtype == np.float64
        assert not out.any()
