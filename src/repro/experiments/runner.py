"""The experimental run matrix: dataset × KGE model × sampling strategy.

This module owns:

* per-model default training configurations (the outcome of the
  hyperparameter tuning step of the paper's workflow, Figure 1);
* a trained-model cache (in-process + on-disk) so the many benchmark
  files can share training runs;
* :func:`run_matrix`, which executes discovery for every combination and
  returns flat result rows — the data behind Figures 2, 4 and 6.

Disk-cache checkpoints are written atomically with content checksums
(see :mod:`repro.resilience`); a corrupt archive is detected at load
time, quarantined to a ``*.corrupt`` sibling, and the model is retrained.
"""

from __future__ import annotations

import logging
import os
import zipfile
from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..discovery.discover import DiscoveryResult, discover_facts
from ..obs import ReportableMixin, SpanDelta, get_registry, span
from ..kg.datasets import load_dataset
from ..kg.graph import KnowledgeGraph
from ..kg.stats import GraphStatistics
from ..kge.base import KGEModel, create_model
from ..kge.checkpoint import load_model, save_model
from ..kge.config import ModelConfig, TrainConfig
from ..kge.training import train_model
from ..resilience import CheckpointCorruptError

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
) -> KGEModel:
    """Return a trained model for a (dataset, model) pair, cached.

    The disk cache (``.model_cache/`` or ``$REPRO_MODEL_CACHE``) lets the
    per-figure benchmark files share one training run per configuration.
    Cache archives carry content checksums: a corrupt one is quarantined
    to a ``*.corrupt`` sibling and the model is retrained; a stale one
    (older config or format) is replaced.
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

    model = create_model(
        model_config.name,
        num_entities=graph.num_entities,
        num_relations=graph.num_relations,
        dim=model_config.dim,
        seed=model_config.seed,
        **model_config.options,
    )
    logger.info("training %s on %s", model_name, dataset_name)
    train_model(model, graph, default_train_config(model_name))
    model.eval()  # match the cache-load path (batch norm / dropout)
    if use_disk_cache:
        save_model(model, cache_path)
    _MODEL_CACHE[key] = model
    return model


@dataclass
class MatrixRow(ReportableMixin):
    """One cell of the experiment matrix with its discovery metrics.

    ``trace`` holds the cell's flattened span-tree summary when
    observability was enabled (empty otherwise).
    """

    dataset: str
    model: str
    strategy: str
    num_facts: int
    mrr: float
    runtime_seconds: float
    weight_seconds: float
    efficiency_facts_per_hour: float
    trace: dict = field(default_factory=dict)

    @classmethod
    def from_result(
        cls,
        dataset: str,
        model: str,
        result: DiscoveryResult,
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
        }
        for path, node in self.trace.items():
            out[f"span.{path}.wall_seconds"] = node["wall_seconds"]
        return out

    def to_dict(self) -> dict:
        """JSON-safe dict; floats round-trip bit-exactly via ``repr``."""
        return asdict(self)


def run_matrix(
    datasets: tuple[str, ...] = PAPER_DATASETS,
    models: tuple[str, ...] = PAPER_MODELS,
    strategies: tuple[str, ...] = PAPER_STRATEGIES,
    top_n: int = 500,
    max_candidates: int = 500,
    seed: int = 0,
) -> list[MatrixRow]:
    """Run discovery for every (dataset, model, strategy) combination.

    Graph statistics are recomputed per cell so each strategy is charged
    its own weight-computation cost, exactly as in the paper's runtime
    measurements.  A failing cell propagates its error.
    """
    rows: list[MatrixRow] = []
    registry = get_registry()
    with span("matrix"):
        for dataset_name in datasets:
            graph = load_dataset(dataset_name)
            for model_name in models:
                for strategy_name in strategies:
                    cell = SpanDelta(registry)
                    with span("matrix.cell"):
                        model = get_trained_model(
                            dataset_name, model_name, graph=graph
                        )
                        result = discover_facts(
                            model,
                            graph,
                            strategy=strategy_name,
                            top_n=top_n,
                            max_candidates=max_candidates,
                            seed=seed,
                            stats=GraphStatistics(graph.train),
                        )
                    registry.counter("matrix.cells_count").inc()
                    rows.append(
                        MatrixRow.from_result(
                            dataset_name,
                            model_name,
                            result,
                            trace=cell.flat(),
                        )
                    )
    return rows
