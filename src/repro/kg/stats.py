"""Graph statistics behind the sampling strategies and the paper's figures.

All structural metrics (degree, triangles, clustering coefficients, squares
clustering) are computed — exactly as the paper specifies — on the
*homogeneous undirected projection* of the knowledge graph: relation labels
and edge directions are dropped, multi-edges collapse to one, self-loops are
removed.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import scipy.sparse as sp

from .blocked import (
    DEFAULT_MEMORY_BUDGET,
    local_triangles_blocked,
    square_clustering_blocked,
)
from .triples import TripleSet

__all__ = [
    "SUBJECT",
    "OBJECT",
    "undirected_adjacency",
    "to_networkx",
    "degrees",
    "entity_frequency",
    "side_entities",
    "local_triangles",
    "local_clustering_coefficient",
    "square_clustering",
    "square_clustering_reference",
    "global_clustering_coefficient",
    "GraphStatistics",
]

SUBJECT = "subject"
OBJECT = "object"
_SIDES = (SUBJECT, OBJECT)


def undirected_adjacency(triples: TripleSet) -> sp.csr_matrix:
    """Boolean adjacency of the undirected homogeneous projection.

    Returns an ``(N, N)`` CSR matrix with 0/1 entries, symmetric, zero
    diagonal.
    """
    n = triples.num_entities
    s = triples.subjects
    o = triples.objects
    mask = s != o  # drop self-loops
    rows = np.concatenate([s[mask], o[mask]])
    cols = np.concatenate([o[mask], s[mask]])
    data = np.ones(rows.shape[0], dtype=np.int64)
    adj = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    adj.data[:] = 1  # collapse parallel edges
    return adj


def degrees(adj: sp.csr_matrix) -> np.ndarray:
    """Undirected degree of each node (array of length N)."""
    return np.asarray(adj.sum(axis=1)).ravel().astype(np.int64)


def side_entities(triples: TripleSet, side: str) -> np.ndarray:
    """Unique entity ids appearing on the given side of any triple."""
    if side == SUBJECT:
        return np.unique(triples.subjects)
    if side == OBJECT:
        return np.unique(triples.objects)
    raise ValueError(f"side must be one of {_SIDES}, got {side!r}")


def entity_frequency(triples: TripleSet, side: str) -> np.ndarray:
    """Occurrence count of each entity on the given side (length N).

    This is ``count(x, side)`` from the paper's ENTITY FREQUENCY strategy
    (Equation 2); entities never appearing on that side get count zero.
    """
    if side == SUBJECT:
        ids = triples.subjects
    elif side == OBJECT:
        ids = triples.objects
    else:
        raise ValueError(f"side must be one of {_SIDES}, got {side!r}")
    return np.bincount(ids, minlength=triples.num_entities).astype(np.int64)


def local_triangles(
    adj: sp.csr_matrix, memory_budget: int = DEFAULT_MEMORY_BUDGET
) -> np.ndarray:
    """Number of triangles through each node, ``T(v)`` in the paper.

    Computed as ``diag(A³) / 2``: the entrywise product ``A ⊙ A²`` summed
    per row counts ordered 2-paths that close, i.e. twice the triangle
    count.  The two-hop product is evaluated in node blocks sized under
    ``memory_budget`` bytes (see :mod:`repro.kg.blocked`), so the count
    matrix ``A²`` — whose Θ(Σ deg²) non-zeros dwarf ``A`` on large skewed
    graphs — is never resident at once.
    """
    return local_triangles_blocked(adj, memory_budget)


def local_clustering_coefficient(
    adj: sp.csr_matrix, memory_budget: int = DEFAULT_MEMORY_BUDGET
) -> np.ndarray:
    """Watts–Strogatz local clustering coefficient ``c(v)`` per node.

    ``c(v) = 2 T(v) / (deg(v) (deg(v) - 1))``; zero where ``deg < 2``.
    """
    deg = degrees(adj).astype(np.float64)
    tri = local_triangles(adj, memory_budget).astype(np.float64)
    denom = deg * (deg - 1.0)
    coeff = np.zeros_like(deg)
    valid = denom > 0
    coeff[valid] = 2.0 * tri[valid] / denom[valid]
    return coeff


def square_clustering(
    adj: sp.csr_matrix, memory_budget: int = DEFAULT_MEMORY_BUDGET
) -> np.ndarray:
    """Squares clustering coefficient ``c₄(v)`` per node (Zhang et al. 2008).

    Fraction of possible 4-cycles through ``v`` that actually exist::

        c₄(v) = Σ_{u<w} q_v(u,w) / Σ_{u<w} [a_v(u,w) + q_v(u,w)]

    where ``q_v(u,w)`` is the number of common neighbours of ``u`` and ``w``
    other than ``v``, and ``a_v(u,w)`` counts the potential squares.

    Evaluated by the blocked CSR kernel
    :func:`repro.kg.blocked.square_clustering_blocked`: the pairwise
    common-neighbour intersections collapse into per-row reductions of the
    two-hop count matrix, computed slab by slab under ``memory_budget``
    bytes.  Bit-identical to :func:`square_clustering_reference` — all
    intermediates are exact integer counts.
    """
    return square_clustering_blocked(adj, memory_budget)


def square_clustering_reference(adj: sp.csr_matrix) -> np.ndarray:
    """The retained pure-Python reference for :func:`square_clustering`.

    A deliberately faithful — and deliberately expensive, Θ(Σ deg²) with
    an inner common-neighbour intersection — implementation: its cost is
    exactly why the paper excludes CLUSTERING SQUARES from the main
    experiments (§4.3).  Kept as the equivalence oracle for the blocked
    kernel and as the honest baseline the substrate benchmarks measure
    speedups against.
    """
    n = adj.shape[0]
    indptr, indices = adj.indptr, adj.indices
    deg = degrees(adj)
    dense_rows = adj.toarray().astype(bool) if n <= 4096 else None
    coeff = np.zeros(n, dtype=np.float64)

    for v in range(n):
        neigh = indices[indptr[v] : indptr[v + 1]]
        k = neigh.shape[0]
        if k < 2:
            continue
        numerator = 0.0
        denominator = 0.0
        for a in range(k):
            u = neigh[a]
            if dense_rows is not None:
                row_u = dense_rows[u]
            else:
                row_u = np.zeros(n, dtype=bool)
                row_u[indices[indptr[u] : indptr[u + 1]]] = True
            for b in range(a + 1, k):
                w = neigh[b]
                w_neigh = indices[indptr[w] : indptr[w + 1]]
                common = int(np.count_nonzero(row_u[w_neigh]))
                # v is adjacent to both u and w, so it is always one of
                # their common neighbours; q_v(u, w) excludes it.
                q = common - 1
                theta_uw = 1 if row_u[w] else 0
                a_term = (deg[u] - (1 + q + theta_uw)) + (
                    deg[w] - (1 + q + theta_uw)
                )
                numerator += q
                denominator += a_term + q
        if denominator > 0:
            coeff[v] = numerator / denominator
    return coeff


def global_clustering_coefficient(
    adj: sp.csr_matrix, memory_budget: int = DEFAULT_MEMORY_BUDGET
) -> float:
    """Average of the local clustering coefficients over all nodes.

    This is the dataset-level density measure of the paper's Figure 3
    (red line), e.g. 0.059 for WN18RR.  Computed through the blocked
    sparse kernels; ``memory_budget`` bounds the resident slab size.
    """
    coeff = local_clustering_coefficient(adj, memory_budget)
    return float(coeff.mean()) if coeff.size else 0.0


def to_networkx(adj: sp.csr_matrix) -> "nx.Graph":
    """Undirected networkx graph over all node ids (including isolates)."""
    graph = nx.from_scipy_sparse_array(adj)
    graph.add_nodes_from(range(adj.shape[0]))
    return graph


class GraphStatistics:
    """Lazily-computed, cached statistics bundle for one triple set.

    The discovery strategies and the figure benchmarks all consume this
    object so that expensive metrics (triangles, squares) are computed at
    most once per graph.

    ``backend`` selects how the triangle-based metrics are computed:

    * ``"sparse"`` (default) — the blocked CSR kernels of
      :mod:`repro.kg.blocked`: vectorised, out-of-core friendly (slabs
      bounded by ``memory_budget`` bytes), and bit-identical to the
      networkx values — both compute the same exact integer counts, so
      the final coefficient divisions divide the same integers.
    * ``"networkx"`` — per-node Python computation, the same substrate
      AmpliGraph's discovery strategies use.  Kept for cross-checking
      the sparse kernels in the test suite; its cost on large graphs is
      what the paper's Figure 2 measures, so benchmarks that want the
      *faithful* runtime profile opt into it explicitly.

    ``memory_budget`` caps the resident size (in bytes) of each two-hop
    slab the sparse kernels build; it only affects blocking, never the
    computed values.
    """

    def __init__(
        self,
        triples: TripleSet,
        backend: str = "sparse",
        memory_budget: int = DEFAULT_MEMORY_BUDGET,
    ) -> None:
        if backend not in ("networkx", "sparse"):
            raise ValueError(f"backend must be 'networkx' or 'sparse', got {backend!r}")
        self.triples = triples
        self.backend = backend
        self.memory_budget = int(memory_budget)
        self._adjacency: sp.csr_matrix | None = None
        self._nx_graph: nx.Graph | None = None
        self._cache: dict[str, np.ndarray | float] = {}

    @property
    def adjacency(self) -> sp.csr_matrix:
        if self._adjacency is None:
            self._adjacency = undirected_adjacency(self.triples)
        return self._adjacency

    @property
    def nx_graph(self) -> "nx.Graph":
        if self._nx_graph is None:
            self._nx_graph = to_networkx(self.adjacency)
        return self._nx_graph

    def _as_array(self, mapping: dict[int, float]) -> np.ndarray:
        out = np.zeros(self.triples.num_entities, dtype=np.float64)
        if mapping:
            # Bulk fancy-index assignment instead of a per-node Python
            # loop; dict key/value views iterate in matching order.
            nodes = np.fromiter(mapping.keys(), dtype=np.int64, count=len(mapping))
            values = np.fromiter(mapping.values(), dtype=np.float64, count=len(mapping))
            out[nodes] = values
        return out

    def _cached(self, key: str, compute) -> np.ndarray | float:
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    @property
    def degree(self) -> np.ndarray:
        return self._cached("degree", lambda: degrees(self.adjacency))

    @property
    def subject_frequency(self) -> np.ndarray:
        return self._cached(
            "subject_frequency", lambda: entity_frequency(self.triples, SUBJECT)
        )

    @property
    def object_frequency(self) -> np.ndarray:
        return self._cached(
            "object_frequency", lambda: entity_frequency(self.triples, OBJECT)
        )

    @property
    def triangles(self) -> np.ndarray:
        if self.backend == "sparse":
            compute = lambda: local_triangles(  # noqa: E731
                self.adjacency, self.memory_budget
            ).astype(np.float64)
        else:
            compute = lambda: self._as_array(nx.triangles(self.nx_graph))  # noqa: E731
        return self._cached("triangles", compute)

    @property
    def clustering_coefficient(self) -> np.ndarray:
        if self.backend == "sparse":
            compute = lambda: local_clustering_coefficient(  # noqa: E731
                self.adjacency, self.memory_budget
            )
        else:
            compute = lambda: self._as_array(nx.clustering(self.nx_graph))  # noqa: E731
        return self._cached("clustering_coefficient", compute)

    @property
    def squares_clustering(self) -> np.ndarray:
        if self.backend == "sparse":
            compute = lambda: square_clustering(  # noqa: E731
                self.adjacency, self.memory_budget
            )
        else:
            compute = lambda: self._as_array(  # noqa: E731
                nx.square_clustering(self.nx_graph)
            )
        return self._cached("squares_clustering", compute)

    @property
    def average_clustering(self) -> float:
        return self._cached(
            "average_clustering",
            lambda: float(self.clustering_coefficient.mean())
            if self.triples.num_entities
            else 0.0,
        )
