"""The in-process facade of the public API: :class:`Session`.

A ``Session`` binds the typed wire requests of :mod:`repro.api.types` to
the execution substrate — the serve-layer :class:`ModelRegistry`, the
query-deduplicated :class:`~repro.kge.ranking.RankingEngine`, the
discovery and classification protocols.  Every transport routes through
it: the HTTP handlers in :mod:`repro.serve.server`, the ``repro query``
CLI, and Python callers embedding the API directly.  Answers are
therefore bit-identical across transports, and bit-identical to the
offline :func:`~repro.discovery.discover_facts` /
:func:`~repro.kge.evaluation.compute_ranks` paths — serving only changes
where the computation runs, never what it returns.

All failures surface as the :class:`~repro.api.types.ApiError` taxonomy;
in particular an expired :class:`~repro.resilience.Deadline` becomes a
:class:`~repro.api.types.DeadlineError` (HTTP 504).
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Mapping

import numpy as np

from ..autograd import no_grad
from ..resilience import Deadline, DeadlineExceededError
from .types import (
    BadRequestError,
    ClassifyRequest,
    ClassifyResponse,
    DeadlineError,
    DiscoverRequest,
    DiscoverResponse,
    HealthResponse,
    ModelRef,
    ModelsResponse,
    RankRequest,
    RankResponse,
    WireType,
    request_type_for,
)

if TYPE_CHECKING:
    from ..serve.registry import ModelEntry, ModelRegistry

__all__ = ["Session"]


@contextmanager
def _api_errors() -> Iterator[None]:
    """Translate substrate exceptions into the typed API taxonomy."""
    try:
        yield
    except DeadlineExceededError as error:
        raise DeadlineError(str(error)) from error


class Session:
    """Executes typed API requests against a model registry.

    Stateless beyond its registry reference, so one instance is safely
    shared by every server worker thread.  Construct with an existing
    :class:`~repro.serve.registry.ModelRegistry` or let the session build
    one (``capacity``/``cache_size`` forwarded).
    """

    def __init__(
        self,
        registry: "ModelRegistry | None" = None,
        *,
        capacity: int = 4,
        cache_size: int = 4096,
        deadline_seconds: float | None = None,
    ) -> None:
        if registry is None:
            from ..serve.registry import ModelRegistry

            registry = ModelRegistry(capacity=capacity, cache_size=cache_size)
        self._registry = registry
        self._deadline_seconds = deadline_seconds

    @property
    def registry(self) -> "ModelRegistry":
        return self._registry

    def add_model(self, dataset: str, checkpoint: Path | str) -> ModelRef:
        """Register a checkpoint; returns its ``dataset/model@digest`` ref."""
        return self._registry.register(dataset, checkpoint)

    def models(self) -> ModelsResponse:
        return ModelsResponse(models=self._registry.describe())

    def health(self) -> HealthResponse:
        return HealthResponse(status="ok", models_count=len(self._registry))

    def _deadline(self, deadline: Deadline | None) -> Deadline | None:
        if deadline is not None:
            return deadline
        if self._deadline_seconds is not None:
            return Deadline.after(self._deadline_seconds)
        return None

    # -- endpoint implementations --------------------------------------

    def rank(
        self, request: RankRequest, deadline: Deadline | None = None
    ) -> RankResponse:
        """Filtered 1-vs-all ranks through the model's warm engine."""
        deadline = self._deadline(deadline)
        with _api_errors():
            with self._registry.acquire(request.model, deadline) as entry:
                if deadline is not None:
                    deadline.check("rank request admitted")
                triples = _as_triples(request.triples)
                filter_triples = _filter_split(entry, request.filter)
                ranks = entry.engine.compute_ranks(
                    entry.model,
                    triples,
                    filter_triples=filter_triples,
                    side=request.side,
                )
                if deadline is not None:
                    deadline.check("rank rows scored")
                return RankResponse(
                    model=entry.spec.ref.model_id,
                    side=request.side,
                    filter=request.filter,
                    ranks=tuple(float(rank) for rank in ranks),
                    mrr=float((1.0 / ranks).mean()),
                )

    def discover(
        self, request: DiscoverRequest, deadline: Deadline | None = None
    ) -> DiscoverResponse:
        """The paper's discovery protocol, warm stats and engine reused."""
        from ..discovery import discover_facts
        from ..discovery.strategies import available_strategies

        deadline = self._deadline(deadline)
        with _api_errors():
            with self._registry.acquire(request.model, deadline) as entry:
                if request.strategy not in available_strategies():
                    raise BadRequestError(
                        f"unknown strategy {request.strategy!r}; "
                        f"available: {available_strategies()}"
                    )
                result = discover_facts(
                    entry.model,
                    entry.graph,
                    strategy=request.strategy,
                    top_n=request.top_n,
                    max_candidates=request.max_candidates,
                    relations=(
                        list(request.relations)
                        if request.relations is not None
                        else None
                    ),
                    seed=request.seed,
                    stats=entry.graph_stats(),
                    engine=entry.engine,
                    deadline=deadline,
                )
                return DiscoverResponse(
                    model=entry.spec.ref.model_id,
                    strategy=request.strategy,
                    top_n=request.top_n,
                    max_candidates=request.max_candidates,
                    seed=request.seed,
                    facts=tuple(
                        (int(s), int(r), int(o)) for s, r, o in result.facts
                    ),
                    ranks=tuple(float(rank) for rank in result.ranks),
                    candidates_generated_count=int(result.candidates_generated),
                )

    def classify(
        self, request: ClassifyRequest, deadline: Deadline | None = None
    ) -> ClassifyResponse:
        """Score triples against the threshold tuned on the valid split."""
        from ..kge.evaluation import triple_classification

        deadline = self._deadline(deadline)
        with _api_errors():
            with self._registry.acquire(request.model, deadline) as entry:
                if deadline is not None:
                    deadline.check("classify request admitted")
                outcome = entry.classification(
                    request.seed,
                    request.hard_negatives,
                    lambda: triple_classification(
                        entry.model,
                        entry.graph,
                        seed=request.seed,
                        hard_negatives=request.hard_negatives,
                    ),
                )
                threshold = float(outcome["threshold"])
                with no_grad():
                    scores = entry.model.scores_spo(_as_triples(request.triples))
                if deadline is not None:
                    deadline.check("classify rows scored")
                return ClassifyResponse(
                    model=entry.spec.ref.model_id,
                    threshold=threshold,
                    scores=tuple(float(score) for score in scores),
                    labels=tuple(bool(score >= threshold) for score in scores),
                )

    # -- wire-level dispatch -------------------------------------------

    def execute(
        self,
        endpoint: str,
        payload: Mapping[str, Any],
        deadline: Deadline | None = None,
    ) -> WireType:
        """Dispatch a decoded JSON payload to one endpoint implementation.

        ``endpoint`` is the path leaf (``rank``/``discover``/``classify``);
        parsing errors and execution failures raise typed
        :class:`~repro.api.types.ApiError` subclasses.
        """
        request = request_type_for(endpoint).from_dict(payload)
        if isinstance(request, RankRequest):
            return self.rank(request, deadline)
        if isinstance(request, DiscoverRequest):
            return self.discover(request, deadline)
        if isinstance(request, ClassifyRequest):
            return self.classify(request, deadline)
        raise BadRequestError(f"unroutable request type {type(request).__name__}")


def _as_triples(triples: tuple[tuple[int, int, int], ...]) -> np.ndarray:
    return np.asarray(triples, dtype=np.int64)


def _filter_split(entry: "ModelEntry", name: str):
    if name == "none":
        return None
    if name == "train":
        return entry.graph.train
    return entry.graph.all_triples()
