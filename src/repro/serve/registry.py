"""The model registry: lazy-loading, LRU-bounded, pin-safe.

Models are registered as ``(dataset, model, config-digest)`` coordinates
pointing at checksummed checkpoints (:mod:`repro.kge.checkpoint`).  The
first request touching a model loads it — checksum-verified — and builds
its warm serving state: a per-model
:class:`~repro.kge.ranking.RankingEngine` whose ``ScoreRowCache``
persists across requests, lazily-computed graph statistics, and tuned
classification thresholds.  The dataset graph, which caches the union
of its splits, is loaded once per dataset and shared by every model on
it, an evicted and reloaded one included.  Loaded entries live in an
LRU of bounded capacity.

Concurrency contract:

- concurrent first requests for the same model elect one loader; the
  rest wait on a condition variable in bounded slices (their deadline
  still fires while the leader loads);
- every request *pins* its entry for the duration of the call
  (:meth:`ModelRegistry.acquire` is a context manager), and eviction
  only ever removes entries with zero pins — an in-flight request can
  never have its model dropped out from under it, even if that leaves
  the registry temporarily over capacity.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

from ..api.types import BadRequestError, ModelInfo, ModelNotFoundError, ModelRef, config_digest
from ..kg.datasets import resolve_dataset
from ..kg.graph import KnowledgeGraph
from ..kg.stats import GraphStatistics
from ..kge.base import KGEModel
from ..kge.checkpoint import checkpoint_header, load_model
from ..kge.ranking import RankingEngine
from ..obs import get_registry
from ..resilience import Deadline

__all__ = ["ModelEntry", "ModelRegistry", "RegistrySpec"]

# Condition waits poll in bounded slices so a stuck loader cannot hang a
# waiter past its deadline (lint rule RPR018 enforces the bound).
_WAIT_SLICE_SECONDS = 0.1


class RegistrySpec:
    """Immutable coordinates of one registered checkpoint."""

    __slots__ = ("ref", "path", "header")

    def __init__(self, ref: ModelRef, path: Path, header: Mapping[str, Any]) -> None:
        self.ref = ref
        self.path = path
        self.header = dict(header)

    def info(self, loaded: bool) -> ModelInfo:
        return ModelInfo(
            model_id=self.ref.model_id,
            dataset=self.ref.dataset,
            model=self.ref.model,
            digest=self.ref.digest,
            dim=int(self.header["dim"]),
            entities_count=int(self.header["num_entities"]),
            relations_count=int(self.header["num_relations"]),
            seed=int(self.header["seed"]),
            loaded=loaded,
        )


class ModelEntry:
    """One loaded model plus its warm per-model serving state."""

    def __init__(
        self,
        spec: RegistrySpec,
        model: KGEModel,
        graph: KnowledgeGraph,
        engine: RankingEngine,
    ) -> None:
        self._lock = threading.Lock()
        self.spec = spec
        self.model = model
        self.graph = graph
        self.engine = engine
        self.pins = 0
        self._stats: GraphStatistics | None = None
        self._classifications: dict[tuple[int, bool], dict[str, float]] = {}

    def graph_stats(self) -> GraphStatistics:
        """The dataset's graph statistics, computed once and reused."""
        with self._lock:
            if self._stats is None:
                self._stats = GraphStatistics(self.graph.train)
            return self._stats

    def classification(
        self, seed: int, hard_negatives: bool, compute: Callable[[], dict[str, float]]
    ) -> dict[str, float]:
        """Tuned classification threshold, cached per ``(seed, negatives)``.

        ``compute`` is deterministic, so a rare duplicate computation on a
        racing first request returns an identical dict; the first writer
        wins and both callers observe the same values.
        """
        key = (int(seed), bool(hard_negatives))
        with self._lock:
            cached = self._classifications.get(key)
        if cached is None:
            result = compute()
            with self._lock:
                self._classifications.setdefault(key, result)
                cached = self._classifications[key]
        return cached


class _Lease:
    """Context manager pinning a registry entry for one request."""

    __slots__ = ("_registry", "entry")

    def __init__(self, registry: "ModelRegistry", entry: ModelEntry) -> None:
        self._registry = registry
        self.entry = entry

    def __enter__(self) -> ModelEntry:
        return self.entry

    def __exit__(self, *exc_info: object) -> None:
        self._registry.release(self.entry)


class ModelRegistry:
    """Thread-safe catalogue and LRU loader of servable models."""

    def __init__(
        self,
        *,
        capacity: int = 4,
        cache_size: int = 4096,
        graph_loader: Callable[[str], KnowledgeGraph] | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("registry capacity must be at least 1")
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._capacity = capacity
        self._cache_size = cache_size
        self._graph_loader = graph_loader if graph_loader is not None else resolve_dataset
        self._specs: "OrderedDict[str, RegistrySpec]" = OrderedDict()
        self._entries: "OrderedDict[str, ModelEntry]" = OrderedDict()
        self._loading: set[str] = set()
        self._graphs: dict[str, KnowledgeGraph] = {}

    # -- catalogue -----------------------------------------------------

    def register(self, dataset: str, checkpoint: Path | str) -> ModelRef:
        """Catalogue a checkpoint under ``dataset/model@config-digest``.

        Only the archive header is read — the parameters load lazily on
        first request.  Re-registering the same coordinates with the same
        path is idempotent; pointing them at a different file is an error.
        """
        path = Path(checkpoint)
        header = checkpoint_header(path)
        ref = ModelRef(
            dataset=dataset, model=str(header["model"]), digest=config_digest(header)
        )
        spec = RegistrySpec(ref=ref, path=path, header=header)
        with self._cond:
            existing = self._specs.get(ref.model_id)
            if existing is not None and existing.path != path:
                raise ValueError(
                    f"model {ref.model_id} already registered from {existing.path}"
                )
            self._specs[ref.model_id] = spec
        return ref

    def refs(self) -> tuple[ModelRef, ...]:
        with self._cond:
            return tuple(spec.ref for spec in self._specs.values())

    def describe(self) -> tuple[ModelInfo, ...]:
        """Catalogue rows for ``/v1/models``, flagging loaded entries."""
        with self._cond:
            specs = list(self._specs.values())
            loaded = set(self._entries)
        return tuple(spec.info(spec.ref.model_id in loaded) for spec in specs)

    def loaded_ids(self) -> tuple[str, ...]:
        with self._cond:
            return tuple(self._entries)

    def counters(self) -> dict[str, int]:
        with self._cond:
            return {
                "models_count": len(self._specs),
                "loaded_count": len(self._entries),
                "pinned_count": sum(
                    1 for entry in self._entries.values() if entry.pins > 0
                ),
            }

    # -- lookup and loading --------------------------------------------

    def _resolve_locked(self, model_id: str) -> str:
        if model_id in self._specs:
            return model_id
        ref = ModelRef.parse(model_id)
        matches = [
            key
            for key, spec in self._specs.items()
            if spec.ref.dataset == ref.dataset
            and spec.ref.model == ref.model
            and spec.ref.digest.startswith(ref.digest)
        ]
        if not matches:
            raise ModelNotFoundError(
                f"no model {model_id!r} registered; "
                f"available: {sorted(self._specs)}"
            )
        if len(matches) > 1:
            raise BadRequestError(
                f"model id {model_id!r} is ambiguous between {sorted(matches)}"
            )
        return matches[0]

    def acquire(self, model_id: str, deadline: Deadline | None = None) -> _Lease:
        """Pin the entry for ``model_id``, loading the checkpoint if cold.

        Returns a context manager yielding the :class:`ModelEntry`; the
        pin is released when the context exits.  Waiters behind an
        in-flight load poll in bounded slices so their ``deadline`` can
        still expire with a typed error.
        """
        metrics = get_registry()
        with self._cond:
            key = self._resolve_locked(model_id)
            spec = self._specs[key]
            while True:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    entry.pins += 1
                    metrics.counter("serve.model_hits_count").inc()
                    return _Lease(self, entry)
                if key not in self._loading:
                    self._loading.add(key)
                    break
                self._cond.wait(timeout=_WAIT_SLICE_SECONDS)
                if deadline is not None:
                    deadline.check(f"waiting for model {key} to load")
        try:
            entry = self._load(spec)
        except BaseException:
            with self._cond:
                self._loading.discard(key)
                self._cond.notify_all()
            raise
        with self._cond:
            self._loading.discard(key)
            self._entries[key] = entry
            self._entries.move_to_end(key)
            entry.pins += 1
            self._evict_unpinned_locked()
            self._cond.notify_all()
        metrics.counter("serve.model_loads_count").inc()
        return _Lease(self, entry)

    def release(self, entry: ModelEntry) -> None:
        """Unpin an entry and run any eviction the pin was blocking."""
        with self._cond:
            entry.pins -= 1
            self._evict_unpinned_locked()
            self._cond.notify_all()

    def _load(self, spec: RegistrySpec) -> ModelEntry:
        model = load_model(spec.path)
        graph = self._graph_for(spec.ref.dataset)
        engine = RankingEngine(cache_size=self._cache_size)
        return ModelEntry(spec=spec, model=model, graph=graph, engine=engine)

    def _graph_for(self, dataset: str) -> KnowledgeGraph:
        with self._cond:
            cached = self._graphs.get(dataset)
        if cached is not None:
            return cached
        graph = self._graph_loader(dataset)
        with self._cond:
            self._graphs.setdefault(dataset, graph)
            return self._graphs[dataset]

    def _evict_unpinned_locked(self) -> None:
        metrics = get_registry()
        while len(self._entries) > self._capacity:
            victim = None
            for key, entry in self._entries.items():
                if entry.pins == 0:
                    victim = key
                    break
            if victim is None:
                return
            del self._entries[victim]
            metrics.counter("serve.model_evictions_count").inc()

    def __iter__(self) -> Iterator[str]:
        with self._cond:
            return iter(tuple(self._specs))

    def __len__(self) -> int:
        with self._cond:
            return len(self._specs)
