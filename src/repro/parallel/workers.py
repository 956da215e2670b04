"""Module-level worker entry points for the campaign fabric.

Everything the :class:`~repro.parallel.scheduler.ParallelScheduler`
dispatches lives here as a plain module-level function (spawn workers
pickle callables by qualified name — lint rule RPR015 rejects closures
and lambdas at fabric call sites).  Heavyweight inputs arrive once per
worker process through the scheduler ``context``; per-process caches
below keep graphs loaded, shared-memory models attached and ranking
engines warm across the cells one worker executes.  The caches need no
invalidation: every pool spawns fresh processes, so their lifetime is
exactly one scheduler pool.

Imports of the experiment layers happen inside the worker functions —
this module is imported by :mod:`repro.experiments.runner` (through
``repro.parallel``) and must not import it back at module scope.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import faults
from ..resilience import FaultPlan, spawn_stream
from .shared import ModelHandle, attach_model

__all__ = [
    "MatrixContext",
    "DiscoveryContext",
    "GridContext",
    "matrix_cell_worker",
    "discover_relation_worker",
    "grid_point_worker",
]

#: segment name -> (model, SharedMemory) attachments for this process.
_MODELS: dict = {}
#: dataset name -> loaded KnowledgeGraph.
_GRAPHS: dict = {}
#: cache key -> GraphStatistics.
_STATS: dict = {}
#: (cache_size, workers) -> RankingEngine.
_ENGINES: dict = {}
_FAULTS_INSTALLED = False


def _attached(handle: ModelHandle):
    """Attach (once per process) and return the shared-memory model."""
    entry = _MODELS.get(handle.segment)
    if entry is None:
        entry = _MODELS[handle.segment] = attach_model(handle)
    return entry[0]


def _dataset_graph(name: str):
    graph = _GRAPHS.get(name)
    if graph is None:
        if name.startswith("store:"):
            # Out-of-core datasets: re-attach the mmap-backed KG store.
            # The triple columns stay on disk and are shared through the
            # page cache, so N workers cost one copy of the data.
            from ..kg.io import load_kg_store

            graph = load_kg_store(name[len("store:") :])
        else:
            from ..kg.datasets import load_dataset

            graph = load_dataset(name)
        _GRAPHS[name] = graph
    return graph


def _engine(cache_size: int, workers: int):
    key = (cache_size, workers)
    engine = _ENGINES.get(key)
    if engine is None:
        from ..kge.ranking import RankingEngine

        engine = _ENGINES[key] = RankingEngine(cache_size=cache_size, workers=workers)
    return engine


def _install_fault_plan(plan: FaultPlan | None) -> None:
    """Mirror the parent's fault plan into this worker (tests only).

    Fault counters are per-process: a plan that fails the first N
    matching triggers fails the first N *in each worker*, which is what
    parallel fault tests must account for.
    """
    global _FAULTS_INSTALLED
    if plan is not None and not _FAULTS_INSTALLED:
        faults.install(plan)
        _FAULTS_INSTALLED = True


# -- run_matrix cells -----------------------------------------------------


@dataclass(frozen=True)
class MatrixContext:
    """Per-pool inputs for matrix cells (everything but the cell triple)."""

    handles: dict  # (dataset, model) -> ModelHandle
    top_n: int
    max_candidates: int
    seed: int
    share_statistics: bool
    fault_plan: FaultPlan | None = None


def matrix_cell_worker(context: MatrixContext, payload, rng):
    """One ``dataset/model/strategy`` cell; returns a MatrixRow dict.

    The discovery seed comes from ``context.seed`` (identical for every
    cell, exactly as the serial runner passes one campaign seed to each
    ``discover_facts`` call) — the scheduler's per-cell ``rng`` stream is
    deliberately unused here so results stay bit-identical to serial.
    """
    dataset, model_name, strategy, test_mrr = payload
    _install_fault_plan(context.fault_plan)
    faults.trigger("matrix_cell", f"{dataset}/{model_name}/{strategy}")

    from ..discovery.discover import discover_facts
    from ..experiments.runner import MatrixRow
    from ..kg.stats import GraphStatistics

    graph = _dataset_graph(dataset)
    model = _attached(context.handles[(dataset, model_name)])
    if context.share_statistics:
        stats = _STATS.get(dataset)
        if stats is None:
            stats = _STATS[dataset] = GraphStatistics(graph.train)
    else:
        stats = GraphStatistics(graph.train)
    result = discover_facts(
        model,
        graph,
        strategy=strategy,
        top_n=context.top_n,
        max_candidates=context.max_candidates,
        seed=context.seed,
        stats=stats,
    )
    return MatrixRow.from_result(dataset, model_name, result, test_mrr).to_dict()


# -- per-relation discovery -----------------------------------------------


@dataclass(frozen=True)
class DiscoveryContext:
    """Per-pool inputs for relation cells of one ``discover_facts`` run."""

    handle: ModelHandle
    graph: object
    strategy: object  # prepared SamplingStrategy
    seed: int
    top_n: int
    max_candidates: int
    sample_size: int
    drop_self_loops: bool
    rule_filter: object
    workers: int
    cache_size: int


def discover_relation_worker(context: DiscoveryContext, relation: int, rng):
    """Algorithm 1's inner loop for one relation, in a worker process.

    Re-seeds via ``spawn_stream(seed, relation)`` — the same per-relation
    stream construction the serial loop uses, so which worker runs which
    relation (and in what order) cannot change the result.
    """
    from ..discovery.discover import discover_relation

    model = _attached(context.handle)
    engine = _engine(context.cache_size, context.workers)
    before = engine.stats.as_dict()
    outcome = discover_relation(
        model,
        context.graph.train,
        context.strategy,
        relation,
        spawn_stream(context.seed, relation),
        top_n=context.top_n,
        max_candidates=context.max_candidates,
        sample_size=context.sample_size,
        drop_self_loops=context.drop_self_loops,
        rule_filter=context.rule_filter,
        engine=engine,
    )
    after = engine.stats.as_dict()
    return {
        "outcome": outcome,
        "ranking_stats": {key: after[key] - before.get(key, 0) for key in after},
    }


# -- hyperparameter grid points -------------------------------------------


@dataclass(frozen=True)
class GridContext:
    """Per-pool inputs for one hyperparameter grid sweep."""

    handle: ModelHandle
    graph: object
    strategy: str
    seed: int


def grid_point_worker(context: GridContext, payload, rng):
    """One (top_n, max_candidates) grid point; returns a GridPoint dict.

    Graph statistics are computed once per worker process and shared
    across its points — deterministic, so numerically indistinguishable
    from the serial sweep's single shared ``GraphStatistics``.
    """
    top_n, max_candidates = payload

    from ..discovery.discover import discover_facts
    from ..experiments.gridsearch import GridPoint
    from ..kg.stats import GraphStatistics

    model = _attached(context.handle)
    stats = _STATS.get("__grid__")
    if stats is None:
        stats = _STATS["__grid__"] = GraphStatistics(context.graph.train)
    result = discover_facts(
        model,
        context.graph,
        strategy=context.strategy,
        top_n=top_n,
        max_candidates=max_candidates,
        seed=context.seed,
        stats=stats,
    )
    return GridPoint(
        strategy=result.strategy,
        top_n=top_n,
        max_candidates=max_candidates,
        num_facts=result.num_facts,
        mrr=result.mrr(),
        runtime_seconds=result.runtime_seconds,
        efficiency_facts_per_hour=result.efficiency_facts_per_hour(),
    ).to_dict()
