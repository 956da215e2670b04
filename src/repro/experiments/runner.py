"""The experimental run matrix: dataset × KGE model × sampling strategy.

This module owns:

* per-model default training configurations (the outcome of the
  hyperparameter tuning step of the paper's workflow, Figure 1);
* a trained-model cache (in-process + on-disk) so the many benchmark
  files can share training runs;
* :func:`run_matrix`, which executes discovery for every combination and
  returns flat result rows — the data behind Figures 2, 4 and 6.

Fault tolerance (see :mod:`repro.resilience`):

* disk-cache checkpoints are written atomically with content checksums;
  a corrupt archive is detected at load time, quarantined to a
  ``*.corrupt`` sibling, and the model is retrained;
* training runs inside :func:`get_trained_model` are guarded (epoch
  retry on divergence) and wrapped in the shared retry executor;
* :func:`run_matrix` can journal every cell to a crash-safe JSONL file:
  a restarted campaign skips completed cells (replaying their recorded
  rows bit-identically), re-attempts failed cells up to a budget, and —
  with ``on_error="degrade"`` — emits partial failure rows instead of
  aborting the whole campaign.
"""

from __future__ import annotations

import logging
import os
import zipfile
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .. import faults
from ..discovery.discover import DiscoveryResult, discover_facts
from ..obs import (
    ReportableMixin,
    flatten_spans,
    get_registry,
    span,
    span_tree_delta,
)
from ..kg.datasets import load_dataset
from ..kg.graph import KnowledgeGraph
from ..kg.stats import GraphStatistics
from ..kge.base import KGEModel, create_model
from ..kge.checkpoint import load_model, save_model
from ..kge.config import ModelConfig, TrainConfig
from ..kge.evaluation import evaluate_ranking
from ..kge.training import train_model
from ..resilience import (
    CheckpointCorruptError,
    Deadline,
    DeadlineExceededError,
    GuardConfig,
    ResilienceError,
    RetryPolicy,
    RunJournal,
    error_fingerprint,
    spawn_seed,
    with_retries,
)

logger = logging.getLogger(__name__)

__all__ = [
    "PAPER_MODELS",
    "PAPER_DATASETS",
    "PAPER_STRATEGIES",
    "default_model_config",
    "default_train_config",
    "get_trained_model",
    "clear_model_cache",
    "MatrixRow",
    "CampaignState",
    "run_matrix",
]

#: The five embedding models of the paper's experiments (§4).
PAPER_MODELS = ("complex", "conve", "distmult", "rescal", "transe")

#: The four datasets (replicas) of the paper's experiments, Table 1 order.
PAPER_DATASETS = ("fb15k237-like", "wn18rr-like", "yago310-like", "codexl-like")

#: The five strategies compared in the main experiments; CLUSTERING
#: SQUARES is excluded exactly as in the paper (§4.3).
PAPER_STRATEGIES = (
    "uniform_random",
    "entity_frequency",
    "graph_degree",
    "cluster_coefficient",
    "cluster_triangles",
)

_MODEL_DEFAULTS: dict[str, tuple[ModelConfig, TrainConfig]] = {
    "transe": (
        ModelConfig("transe", dim=32, options={"norm": "l1"}),
        TrainConfig(
            job="negative_sampling",
            loss="margin",
            epochs=60,
            batch_size=256,
            lr=0.01,
            num_negatives=8,
            margin=2.0,
        ),
    ),
    "distmult": (
        ModelConfig("distmult", dim=32),
        TrainConfig(
            job="kvsall", loss="bce", epochs=60, batch_size=128, lr=0.05,
            label_smoothing=0.1,
        ),
    ),
    "complex": (
        ModelConfig("complex", dim=32),
        TrainConfig(
            job="kvsall", loss="bce", epochs=60, batch_size=128, lr=0.05,
            label_smoothing=0.1,
        ),
    ),
    "rescal": (
        ModelConfig("rescal", dim=16),
        TrainConfig(
            job="kvsall", loss="bce", epochs=60, batch_size=128, lr=0.02,
            label_smoothing=0.1,
        ),
    ),
    "conve": (
        ModelConfig("conve", dim=32, options={"num_filters": 16}),
        TrainConfig(
            job="kvsall", loss="bce", epochs=25, batch_size=128, lr=0.005,
            label_smoothing=0.1,
        ),
    ),
    "hole": (
        ModelConfig("hole", dim=32),
        TrainConfig(
            job="kvsall", loss="bce", epochs=60, batch_size=128, lr=0.05,
            label_smoothing=0.1,
        ),
    ),
}

#: Guard applied to every cache-building training run: retry a diverged
#: epoch with spawned RNG streams, then halt with a typed error that the
#: outer retry executor turns into a full re-train under a derived seed.
_DEFAULT_GUARD = GuardConfig(policy="retry")

#: Whole-training retry budget inside :func:`get_trained_model`.
_DEFAULT_RETRY = RetryPolicy(max_attempts=3, base_delay=0.0)


def default_model_config(model_name: str) -> ModelConfig:
    """The tuned model configuration used by the experiment matrix."""
    if model_name not in _MODEL_DEFAULTS:
        raise KeyError(f"no default config for model {model_name!r}")
    return _MODEL_DEFAULTS[model_name][0]


def default_train_config(model_name: str) -> TrainConfig:
    """The tuned training configuration used by the experiment matrix."""
    if model_name not in _MODEL_DEFAULTS:
        raise KeyError(f"no default config for model {model_name!r}")
    return _MODEL_DEFAULTS[model_name][1]


_MODEL_CACHE: dict[tuple[str, str], KGEModel] = {}


def _cache_dir() -> Path:
    return Path(os.environ.get("REPRO_MODEL_CACHE", ".model_cache"))


def clear_model_cache(disk: bool = False) -> None:
    """Drop the in-process model cache (and optionally the disk cache)."""
    _MODEL_CACHE.clear()
    if disk:
        directory = _cache_dir()
        if directory.is_dir():
            for path in directory.glob("*.npz"):
                path.unlink()
            for path in directory.glob("*.npz.corrupt"):
                path.unlink()


def _quarantine(path: Path) -> Path:
    """Move a corrupt checkpoint aside (``*.npz`` → ``*.npz.corrupt``)."""
    target = path.with_name(path.name + ".corrupt")
    target.unlink(missing_ok=True)
    path.rename(target)
    return target


def _compatible(model: KGEModel, config: ModelConfig, graph: KnowledgeGraph) -> bool:
    """Does a cached model match the current tuned config and dataset?"""
    return (
        model.model_name == config.name
        and model.dim == config.dim
        and model.num_entities == graph.num_entities
        and model.num_relations == graph.num_relations
    )


def get_trained_model(
    dataset_name: str,
    model_name: str,
    use_disk_cache: bool = True,
    graph: KnowledgeGraph | None = None,
    guard: GuardConfig | None = None,
    retry_policy: RetryPolicy | None = None,
    deadline: Deadline | None = None,
) -> KGEModel:
    """Return a trained model for a (dataset, model) pair, cached.

    The disk cache (``.model_cache/`` or ``$REPRO_MODEL_CACHE``) lets the
    per-figure benchmark files share one training run per configuration.
    Cache archives carry content checksums: a corrupt one is quarantined
    to a ``*.corrupt`` sibling and the model is retrained.  Training runs
    under a divergence guard and the shared retry executor — a retried
    attempt re-trains under a seed spawned from the base seed, so
    recovery is deterministic without replaying the failing run.
    """
    key = (dataset_name, model_name)
    if key in _MODEL_CACHE:
        return _MODEL_CACHE[key]

    if graph is None:
        graph = load_dataset(dataset_name)
    model_config = default_model_config(model_name)

    cache_path = _cache_dir() / f"{dataset_name}__{model_name}.npz"
    if use_disk_cache and cache_path.is_file():
        try:
            model = load_model(cache_path)
            if not _compatible(model, model_config, graph):
                raise ValueError(
                    f"cached model shape does not match the tuned config "
                    f"for {model_name!r}"
                )
        except CheckpointCorruptError as error:
            quarantined = _quarantine(cache_path)
            logger.warning(
                "corrupt disk cache for %s/%s quarantined to %s; retraining (%s)",
                dataset_name, model_name, quarantined.name, error,
            )
        except (KeyError, ValueError, OSError, zipfile.BadZipFile) as error:
            # Stale cache from an older config or format — retrain and
            # overwrite it below.
            logger.warning(
                "unusable disk cache for %s/%s; retraining (%s)",
                dataset_name, model_name, error,
            )
            cache_path.unlink(missing_ok=True)
        else:
            _MODEL_CACHE[key] = model
            logger.info("loaded %s/%s from disk cache", dataset_name, model_name)
            return model

    train_config = default_train_config(model_name)

    def train_attempt(attempt: int) -> KGEModel:
        # Attempt 0 reproduces the unretried run bit for bit; later
        # attempts re-train under seeds spawned from the base seed.
        attempt_config = (
            train_config
            if attempt == 0
            else train_config.with_(seed=spawn_seed(train_config.seed, attempt))
        )
        fresh = create_model(
            model_config.name,
            num_entities=graph.num_entities,
            num_relations=graph.num_relations,
            dim=model_config.dim,
            seed=model_config.seed,
            **model_config.options,
        )
        logger.info(
            "training %s on %s (attempt %d)", model_name, dataset_name, attempt + 1
        )
        train_model(fresh, graph, attempt_config, guard=guard or _DEFAULT_GUARD)
        return fresh

    model = with_retries(
        train_attempt,
        retry_policy or _DEFAULT_RETRY,
        label=f"get_trained_model:{dataset_name}/{model_name}",
        deadline=deadline,
    )
    model.eval()  # match the cache-load path (batch norm / dropout)
    if use_disk_cache:
        save_model(model, cache_path)
    _MODEL_CACHE[key] = model
    return model


@dataclass
class MatrixRow(ReportableMixin):
    """One cell of the experiment matrix with its discovery metrics.

    ``status`` is ``"ok"`` for a completed cell and ``"failed"`` for a
    cell whose retry budget ran out in a degrading campaign; ``error``
    then carries the failure fingerprint.  ``trace`` holds the cell's
    flattened span-tree summary when observability was enabled (empty
    otherwise; old journal records without the field load unchanged).
    """

    dataset: str
    model: str
    strategy: str
    num_facts: int
    mrr: float
    runtime_seconds: float
    weight_seconds: float
    efficiency_facts_per_hour: float
    test_mrr: float = float("nan")
    status: str = "ok"
    error: str = ""
    trace: dict = field(default_factory=dict)

    @classmethod
    def from_result(
        cls,
        dataset: str,
        model: str,
        result: DiscoveryResult,
        test_mrr: float = float("nan"),
        trace: dict | None = None,
    ) -> "MatrixRow":
        return cls(
            dataset=dataset,
            model=model,
            strategy=result.strategy,
            num_facts=result.num_facts,
            mrr=result.mrr(),
            runtime_seconds=result.runtime_seconds,
            weight_seconds=result.weight_seconds,
            efficiency_facts_per_hour=result.efficiency_facts_per_hour(),
            test_mrr=test_mrr,
            trace=dict(trace) if trace else {},
        )

    def summary(self) -> dict:
        """Flat overview under canonical ``*_seconds``/``*_count`` keys."""
        out = {
            "dataset": self.dataset,
            "model": self.model,
            "strategy": self.strategy,
            "facts_count": self.num_facts,
            "mrr": self.mrr,
            "runtime_seconds": self.runtime_seconds,
            "weight_seconds": self.weight_seconds,
            "efficiency_facts_per_hour": self.efficiency_facts_per_hour,
            "test_mrr": self.test_mrr,
            "status": self.status,
        }
        for path, node in self.trace.items():
            out[f"span.{path}.wall_seconds"] = node["wall_seconds"]
        return out

    @classmethod
    def failed(cls, dataset: str, model: str, strategy: str, error: str) -> "MatrixRow":
        nan = float("nan")
        return cls(
            dataset=dataset,
            model=model,
            strategy=strategy,
            num_facts=0,
            mrr=nan,
            runtime_seconds=nan,
            weight_seconds=nan,
            efficiency_facts_per_hour=nan,
            status="failed",
            error=error,
        )

    def to_dict(self) -> dict:
        """JSON-safe dict; floats round-trip bit-exactly via ``repr``."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "MatrixRow":
        return cls(**data)


@dataclass
class CampaignState:
    """What a run journal says about a campaign so far."""

    completed: dict[str, dict]  # cell key -> recorded MatrixRow dict
    attempts: dict[str, int]  # cell key -> started count (crashes included)
    last_error: dict[str, str]  # cell key -> most recent failure fingerprint

    @classmethod
    def from_journal(cls, journal: RunJournal) -> "CampaignState":
        completed: dict[str, dict] = {}
        attempts: dict[str, int] = {}
        last_error: dict[str, str] = {}
        for record in journal.read().records:
            key = record.get("cell", "")
            event = record.get("event")
            if event == "cell_started":
                attempts[key] = attempts.get(key, 0) + 1
            elif event == "cell_succeeded" and isinstance(record.get("row"), dict):
                completed[key] = record["row"]
            elif event in ("cell_failed", "cell_timeout"):
                last_error[key] = str(record.get("error", ""))
        return cls(completed=completed, attempts=attempts, last_error=last_error)


def _cell_key(dataset: str, model: str, strategy: str) -> str:
    return f"{dataset}/{model}/{strategy}"


def run_matrix(
    datasets: tuple[str, ...] = PAPER_DATASETS,
    models: tuple[str, ...] = PAPER_MODELS,
    strategies: tuple[str, ...] = PAPER_STRATEGIES,
    top_n: int = 500,
    max_candidates: int = 500,
    seed: int = 0,
    evaluate_models: bool = False,
    share_statistics: bool = False,
    journal_path: Path | str | None = None,
    max_cell_attempts: int = 3,
    on_error: str = "raise",
    procs: int = 1,
    cell_deadline: float | None = None,
) -> list[MatrixRow]:
    """Run discovery for every (dataset, model, strategy) combination.

    ``share_statistics=False`` (default) recomputes graph statistics per
    run so each strategy is charged its own weight-computation cost,
    exactly as in the paper's runtime measurements; pass ``True`` to
    amortise it when only fact quality matters.

    With ``journal_path`` set, every cell is journalled to a crash-safe
    JSONL file: restarting the same campaign skips completed cells and
    replays their recorded rows bit-identically, while cells that
    previously crashed or failed are re-attempted until they have been
    started ``max_cell_attempts`` times.  ``on_error`` selects what a
    cell failure does: ``"raise"`` (default) propagates it, aborting the
    campaign (the journal preserves progress); ``"degrade"`` records it
    and emits a partial :class:`MatrixRow` (``status="failed"`` with the
    error fingerprint) once the attempt budget is spent.

    ``procs > 1`` dispatches cells across a spawn-based process pool
    (:mod:`repro.parallel`): models are trained (or loaded from cache)
    in this process, published to shared memory, and scored by workers
    against zero-copy views.  Rows, journal semantics and degradation
    are identical to the serial path — only wall-clock ``*_seconds``
    fields and span traces differ.  One deviation, by design: a
    training failure under ``on_error="degrade"`` consumes a single
    journalled attempt per dependent cell per campaign run (serially
    each cell retrains up to its whole budget within one run); resuming
    the campaign retries them.

    ``cell_deadline`` bounds each cell's wall clock in seconds.  The
    serial path enforces it cooperatively — a fresh
    :class:`~repro.resilience.Deadline` per cell is threaded into the
    training retry loop and checked between discovery relations, and an
    overrun journals a ``cell_timeout`` event charged against the cell's
    attempt budget.  The parallel path enforces it preemptively: the
    scheduler watchdog kills overdue workers (size the budget above the
    ~1-2s pool spawn cost).
    """
    if on_error not in ("raise", "degrade"):
        raise ValueError(f"on_error must be 'raise' or 'degrade', got {on_error!r}")
    if procs < 1:
        raise ValueError(f"procs must be >= 1, got {procs}")
    journal = RunJournal(journal_path) if journal_path is not None else None
    state = (
        CampaignState.from_journal(journal)
        if journal is not None
        else CampaignState(completed={}, attempts={}, last_error={})
    )
    if procs > 1:
        return _run_matrix_parallel(
            datasets,
            models,
            strategies,
            top_n=top_n,
            max_candidates=max_candidates,
            seed=seed,
            evaluate_models=evaluate_models,
            share_statistics=share_statistics,
            journal=journal,
            state=state,
            max_cell_attempts=max_cell_attempts,
            on_error=on_error,
            procs=procs,
            cell_deadline=cell_deadline,
        )

    rows: list[MatrixRow] = []
    registry = get_registry()
    with span("matrix"):
        for dataset_name in datasets:
            graph: KnowledgeGraph | None = None
            shared_stats: GraphStatistics | None = None
            test_mrr_cache: dict[str, float] = {}
            for model_name in models:
                for strategy_name in strategies:
                    key = _cell_key(dataset_name, model_name, strategy_name)
                    if key in state.completed:
                        rows.append(MatrixRow.from_dict(state.completed[key]))
                        continue
                    attempts = state.attempts.get(key, 0)
                    if attempts >= max_cell_attempts:
                        rows.append(
                            MatrixRow.failed(
                                dataset_name,
                                model_name,
                                strategy_name,
                                state.last_error.get(key, "interrupted"),
                            )
                        )
                        continue

                    if graph is None:
                        graph = load_dataset(dataset_name)
                        if share_statistics:
                            shared_stats = GraphStatistics(graph.train)
                    if journal is not None:
                        journal.append("cell_started", cell=key, attempt=attempts + 1)
                        state.attempts[key] = attempts + 1
                    cell_before = (
                        registry.snapshot()["spans"] if registry.enabled else None
                    )
                    deadline = (
                        Deadline.after(cell_deadline)
                        if cell_deadline is not None
                        else None
                    )
                    try:
                        faults.trigger("matrix_cell", key)
                        with span("matrix.cell"):
                            model = get_trained_model(
                                dataset_name, model_name, graph=graph,
                                deadline=deadline,
                            )
                            if evaluate_models and model_name not in test_mrr_cache:
                                test_mrr_cache[model_name] = evaluate_ranking(
                                    model, graph, split="test"
                                ).mrr
                            test_mrr = (
                                test_mrr_cache[model_name]
                                if evaluate_models
                                else float("nan")
                            )
                            stats = shared_stats or GraphStatistics(graph.train)
                            result = discover_facts(
                                model,
                                graph,
                                strategy=strategy_name,
                                top_n=top_n,
                                max_candidates=max_candidates,
                                seed=seed,
                                stats=stats,
                                deadline=deadline,
                            )
                    except Exception as error:
                        registry.counter("matrix.cell_failures_count").inc()
                        fingerprint = error_fingerprint(error)
                        if journal is not None:
                            journal.append(
                                "cell_timeout"
                                if isinstance(error, DeadlineExceededError)
                                else "cell_failed",
                                cell=key,
                                attempt=state.attempts.get(key, attempts + 1),
                                error=fingerprint,
                            )
                            state.last_error[key] = fingerprint
                        if on_error == "raise":
                            raise
                        logger.warning("cell %s failed: %s", key, fingerprint)
                        if state.attempts.get(key, attempts + 1) >= max_cell_attempts:
                            rows.append(
                                MatrixRow.failed(
                                    dataset_name,
                                    model_name,
                                    strategy_name,
                                    fingerprint,
                                )
                            )
                        else:
                            rows.append(
                                _rerun_cell(
                                    journal,
                                    state,
                                    dataset_name,
                                    model_name,
                                    strategy_name,
                                    graph,
                                    shared_stats,
                                    top_n,
                                    max_candidates,
                                    seed,
                                    max_cell_attempts,
                                )
                            )
                        continue

                    trace = (
                        flatten_spans(
                            span_tree_delta(
                                cell_before, registry.snapshot()["spans"]
                            )
                        )
                        if cell_before is not None
                        else {}
                    )
                    registry.counter("matrix.cells_count").inc()
                    row = MatrixRow.from_result(
                        dataset_name, model_name, result, test_mrr, trace=trace
                    )
                    if journal is not None:
                        journal.append("cell_succeeded", cell=key, row=row.to_dict())
                        state.completed[key] = row.to_dict()
                    rows.append(row)
    return rows


def _run_matrix_parallel(
    datasets: tuple[str, ...],
    models: tuple[str, ...],
    strategies: tuple[str, ...],
    top_n: int,
    max_candidates: int,
    seed: int,
    evaluate_models: bool,
    share_statistics: bool,
    journal: RunJournal | None,
    state: CampaignState,
    max_cell_attempts: int,
    on_error: str,
    procs: int,
    cell_deadline: float | None = None,
) -> list[MatrixRow]:
    """Dispatch the matrix across the process fabric (``procs > 1``).

    The parent keeps everything stateful: it replays completed cells
    from the journal, trains (or cache-loads) every needed model,
    publishes each to shared memory, and evaluates test MRR.  Workers
    only load graphs, attach models and run discovery.  Returned rows
    carry the worker-side span trace when observability is enabled; the
    journalled ``cell_succeeded`` records hold the row as the worker
    produced it (without the trace).
    """
    from ..parallel import Cell, ParallelScheduler, SharedEmbeddingStore
    from ..parallel.workers import MatrixContext, matrix_cell_worker

    registry = get_registry()
    rows_by_key: dict[str, MatrixRow] = {}
    order: list[str] = []
    runnable: list[tuple[str, str, str]] = []
    with span("matrix"):
        for dataset_name in datasets:
            for model_name in models:
                for strategy_name in strategies:
                    key = _cell_key(dataset_name, model_name, strategy_name)
                    order.append(key)
                    if key in state.completed:
                        rows_by_key[key] = MatrixRow.from_dict(state.completed[key])
                    elif state.attempts.get(key, 0) >= max_cell_attempts:
                        rows_by_key[key] = MatrixRow.failed(
                            dataset_name,
                            model_name,
                            strategy_name,
                            state.last_error.get(key, "interrupted"),
                        )
                    else:
                        runnable.append((dataset_name, model_name, strategy_name))

        pairs: list[tuple[str, str]] = []
        for dataset_name, model_name, _ in runnable:
            if (dataset_name, model_name) not in pairs:
                pairs.append((dataset_name, model_name))

        stores: dict[tuple[str, str], SharedEmbeddingStore] = {}
        handles: dict[tuple[str, str], object] = {}
        test_mrrs: dict[tuple[str, str], float] = {}
        failed_pairs: dict[tuple[str, str], str] = {}
        graphs: dict[str, KnowledgeGraph] = {}
        outcomes = []
        try:
            for dataset_name, model_name in pairs:
                if dataset_name not in graphs:
                    graphs[dataset_name] = load_dataset(dataset_name)
                graph = graphs[dataset_name]
                try:
                    model = get_trained_model(dataset_name, model_name, graph=graph)
                    store = SharedEmbeddingStore.publish(model)
                    stores[(dataset_name, model_name)] = store
                    handles[(dataset_name, model_name)] = store.handle
                    if evaluate_models:
                        test_mrrs[(dataset_name, model_name)] = evaluate_ranking(
                            model, graph, split="test"
                        ).mrr
                except Exception as error:
                    if on_error == "raise":
                        raise
                    fingerprint = error_fingerprint(error)
                    failed_pairs[(dataset_name, model_name)] = fingerprint
                    logger.warning(
                        "training %s/%s failed, degrading its cells: %s",
                        dataset_name, model_name, fingerprint,
                    )

            cells: list[Cell] = []
            for dataset_name, model_name, strategy_name in runnable:
                key = _cell_key(dataset_name, model_name, strategy_name)
                fingerprint = failed_pairs.get((dataset_name, model_name))
                if fingerprint is not None:
                    attempt = state.attempts.get(key, 0) + 1
                    if journal is not None:
                        journal.append("cell_started", cell=key, attempt=attempt)
                        journal.append(
                            "cell_failed", cell=key, attempt=attempt, error=fingerprint
                        )
                    state.attempts[key] = attempt
                    registry.counter("matrix.cell_failures_count").inc()
                    rows_by_key[key] = MatrixRow.failed(
                        dataset_name, model_name, strategy_name, fingerprint
                    )
                else:
                    cells.append(
                        Cell(
                            key=key,
                            payload=(
                                dataset_name,
                                model_name,
                                strategy_name,
                                test_mrrs.get(
                                    (dataset_name, model_name), float("nan")
                                ),
                            ),
                        )
                    )

            if cells:
                context = MatrixContext(
                    handles=handles,
                    top_n=top_n,
                    max_candidates=max_candidates,
                    seed=seed,
                    share_statistics=share_statistics,
                    fault_plan=faults.active_plan(),
                )
                scheduler = ParallelScheduler(
                    matrix_cell_worker,
                    procs,
                    context=context,
                    seed=seed,
                    journal=journal,
                    max_attempts=max_cell_attempts,
                    on_error=on_error,
                    cell_deadline=cell_deadline,
                )
                outcomes = scheduler.run(cells, attempts=dict(state.attempts))
        finally:
            for store in stores.values():
                store.close(unlink=True)

        for outcome in outcomes:
            if outcome.status == "ok":
                registry.counter("matrix.cells_count").inc()
                row = MatrixRow.from_dict(outcome.value)
                row.trace = dict(outcome.trace)
            else:
                registry.counter("matrix.cell_failures_count").inc()
                dataset_name, model_name, strategy_name = outcome.key.split("/")
                row = MatrixRow.failed(
                    dataset_name, model_name, strategy_name, outcome.error
                )
            rows_by_key[outcome.key] = row
    return [rows_by_key[key] for key in order]


def _record_cell_failure(
    journal: RunJournal | None,
    state: CampaignState,
    key: str,
    attempt: int,
    error: Exception,
    typed: bool = False,
) -> None:
    """Journal and log one failed cell attempt."""
    fingerprint = error_fingerprint(error)
    state.last_error[key] = fingerprint
    if journal is not None:
        journal.append("cell_failed", cell=key, attempt=attempt, error=fingerprint)
    logger.warning(
        "cell %s failed on attempt %d%s: %s",
        key,
        attempt,
        " (typed resilience error)" if typed else "",
        fingerprint,
    )


def _rerun_cell(
    journal: RunJournal | None,
    state: CampaignState,
    dataset_name: str,
    model_name: str,
    strategy_name: str,
    graph: KnowledgeGraph,
    shared_stats: GraphStatistics | None,
    top_n: int,
    max_candidates: int,
    seed: int,
    max_cell_attempts: int,
) -> MatrixRow:
    """Degrading-mode in-process re-attempts of one failed cell."""
    key = _cell_key(dataset_name, model_name, strategy_name)
    while state.attempts.get(key, 0) < max_cell_attempts:
        attempt = state.attempts.get(key, 0) + 1
        if journal is not None:
            journal.append("cell_started", cell=key, attempt=attempt)
        state.attempts[key] = attempt
        try:
            faults.trigger("matrix_cell", key)
            model = get_trained_model(dataset_name, model_name, graph=graph)
            stats = shared_stats or GraphStatistics(graph.train)
            result = discover_facts(
                model,
                graph,
                strategy=strategy_name,
                top_n=top_n,
                max_candidates=max_candidates,
                seed=seed,
                stats=stats,
            )
        except ResilienceError as error:
            # Typed failures (fault injection, corrupt checkpoints,
            # exhausted retry budgets) keep their identity in the journal
            # and logs; a fresh attempt may still retrain from scratch.
            _record_cell_failure(
                journal, state, key, attempt, error, typed=True
            )
            continue
        except Exception as error:
            _record_cell_failure(journal, state, key, attempt, error)
            continue
        row = MatrixRow.from_result(dataset_name, model_name, result)
        if journal is not None:
            journal.append("cell_succeeded", cell=key, row=row.to_dict())
            state.completed[key] = row.to_dict()
        return row
    return MatrixRow.failed(
        dataset_name, model_name, strategy_name,
        state.last_error.get(key, "interrupted"),
    )
