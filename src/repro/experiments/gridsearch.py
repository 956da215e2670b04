"""Hyperparameter analysis for ``top_n`` and ``max_candidates`` (paper §4.3).

Runs the discovery algorithm over grids of the two hyperparameters and
records runtime, fact count, MRR and efficiency — the data behind
Figures 7–10.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from ..discovery.discover import discover_facts
from ..kg.graph import KnowledgeGraph
from ..kg.stats import GraphStatistics
from ..kge.base import KGEModel
from ..obs import ReportableMixin
from ..resilience import Deadline

__all__ = [
    "GridPoint",
    "GridSearchResult",
    "hyperparameter_grid",
    "PAPER_TOP_N_GRID",
    "PAPER_MAX_CANDIDATES_GRID",
]

#: The grids explored in the paper's §4.3.1.
PAPER_TOP_N_GRID = (100, 200, 300, 400, 500, 700)
PAPER_MAX_CANDIDATES_GRID = (50, 100, 200, 300, 400, 500, 700)


@dataclass
class GridPoint(ReportableMixin):
    """Metrics measured at one (top_n, max_candidates) grid cell."""

    strategy: str
    top_n: int
    max_candidates: int
    num_facts: int
    mrr: float
    runtime_seconds: float
    efficiency_facts_per_hour: float

    def summary(self) -> dict[str, float]:
        return {
            "strategy": self.strategy,
            "top_n": self.top_n,
            "max_candidates": self.max_candidates,
            "facts_count": self.num_facts,
            "mrr": self.mrr,
            "runtime_seconds": self.runtime_seconds,
            "efficiency_facts_per_hour": self.efficiency_facts_per_hour,
        }

    def to_dict(self) -> dict:
        return asdict(self)


#: Canonical name under the unified result API; ``GridPoint`` is the
#: historical spelling and remains the class's ``__name__``.
GridSearchResult = GridPoint


def hyperparameter_grid(
    model: KGEModel,
    graph: KnowledgeGraph,
    strategy: str = "uniform_random",
    top_n_values: tuple[int, ...] = PAPER_TOP_N_GRID,
    max_candidates_values: tuple[int, ...] = PAPER_MAX_CANDIDATES_GRID,
    seed: int = 0,
    stats: GraphStatistics | None = None,
    cell_deadline: float | None = None,
) -> list[GridPoint]:
    """Run discovery at every (top_n, max_candidates) grid point.

    Statistics are shared across the grid (the weight computation is not
    the variable under study here), matching how the paper holds one
    configuration fixed while sweeping the hyperparameters.

    ``cell_deadline`` bounds one grid point's wall clock in seconds via a
    cooperative per-point :class:`~repro.resilience.Deadline` checked
    between relations inside discovery; an overrun raises
    :class:`~repro.resilience.DeadlineExceededError`.
    """
    grid = [
        (top_n, max_candidates)
        for max_candidates in max_candidates_values
        for top_n in top_n_values
    ]
    if stats is None:
        stats = GraphStatistics(graph.train)
    points: list[GridPoint] = []
    for top_n, max_candidates in grid:
        deadline = (
            Deadline.after(cell_deadline) if cell_deadline is not None else None
        )
        result = discover_facts(
            model,
            graph,
            strategy=strategy,
            top_n=top_n,
            max_candidates=max_candidates,
            seed=seed,
            stats=stats,
            deadline=deadline,
        )
        points.append(
            GridPoint(
                strategy=result.strategy,
                top_n=top_n,
                max_candidates=max_candidates,
                num_facts=result.num_facts,
                mrr=result.mrr(),
                runtime_seconds=result.runtime_seconds,
                efficiency_facts_per_hour=result.efficiency_facts_per_hour(),
            )
        )
    return points
