"""Versioned wire types for the public query API.

Every request/response that crosses a process boundary — the HTTP
endpoints in :mod:`repro.serve`, the ``repro query`` CLI, Python callers
going through :class:`repro.api.Session` — is one of the frozen
keyword-only dataclasses below.  Each carries a ``schema_version`` field
(currently :data:`SCHEMA_VERSION`), serialises through ``to_dict`` /
``to_json`` with deterministic key order, and parses back through
``from_dict``, which rejects unknown keys and unsupported schema
versions with a typed :class:`BadRequestError` instead of silently
dropping fields.  Responses additionally satisfy the
:class:`~repro.obs.reporting.Reportable` protocol, so their ``summary()``
keys follow the canonical ``*_seconds``/``*_count`` vocabulary.

Errors are modelled as an :class:`ApiError` hierarchy whose ``status`` /
``code`` class attributes define the HTTP error envelope; transports map
any other exception to the generic 500 ``internal`` code so the wire
never leaks stack traces.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from typing import Any, ClassVar, Mapping

from ..obs.reporting import ReportableMixin, json_default

__all__ = [
    "SCHEMA_VERSION",
    "ApiError",
    "BadRequestError",
    "NotFoundError",
    "ModelNotFoundError",
    "DeadlineError",
    "ModelRef",
    "config_digest",
    "WireType",
    "RankRequest",
    "DiscoverRequest",
    "ClassifyRequest",
    "RankResponse",
    "DiscoverResponse",
    "ClassifyResponse",
    "ModelInfo",
    "ModelsResponse",
    "HealthResponse",
    "encode_payload",
    "request_type_for",
    "response_type_for",
]

SCHEMA_VERSION = "v1"

_RANK_SIDES = ("subject", "object")
_RANK_FILTERS = ("train", "all", "none")


class ApiError(Exception):
    """Base for typed API failures; subclasses pin the HTTP status/code.

    ``envelope()`` is the one error shape on the wire: transports
    serialise it verbatim, clients re-raise from it, so Python and HTTP
    callers see the same taxonomy.
    """

    status: ClassVar[int] = 500
    code: ClassVar[str] = "internal"

    def envelope(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "error": {
                "code": self.code,
                "status": self.status,
                "message": str(self),
            },
        }


class BadRequestError(ApiError):
    """Malformed request: unknown keys, bad types, unsupported schema."""

    status = 400
    code = "bad_request"


class NotFoundError(ApiError):
    """Unknown route or resource."""

    status = 404
    code = "not_found"


class ModelNotFoundError(NotFoundError):
    """The requested model id is not registered."""

    code = "model_not_found"


class DeadlineError(ApiError):
    """The per-request deadline expired before the answer was ready."""

    status = 504
    code = "deadline_exceeded"


def config_digest(header: Mapping[str, Any]) -> str:
    """12-hex digest of a checkpoint header's model configuration.

    Hashes the architecture-defining fields only (not the parameter
    checksum), so two checkpoints of the same configuration at different
    training states share a digest prefix in the registry while any
    config change — dim, seed, model options — forks the model id.
    """
    canonical = {
        key: header[key]
        for key in ("model", "num_entities", "num_relations", "dim", "seed", "options")
        if key in header
    }
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True, kw_only=True)
class ModelRef:
    """Registry coordinates of one servable model.

    The canonical string form is ``dataset/model@digest``; the digest may
    be empty, meaning "whichever single config of this model the registry
    holds" (convenience for CLI use — ambiguity is a lookup error).
    """

    dataset: str
    model: str
    digest: str = ""

    @property
    def model_id(self) -> str:
        if not self.digest:
            return f"{self.dataset}/{self.model}"
        return f"{self.dataset}/{self.model}@{self.digest}"

    @classmethod
    def parse(cls, model_id: str) -> "ModelRef":
        dataset, sep, rest = model_id.partition("/")
        if not sep or not dataset or not rest:
            raise BadRequestError(
                f"model id {model_id!r} is not of the form dataset/model[@digest]"
            )
        model, _, digest = rest.partition("@")
        if not model:
            raise BadRequestError(f"model id {model_id!r} has an empty model name")
        return cls(dataset=dataset, model=model, digest=digest)

    def to_dict(self) -> dict[str, Any]:
        return {"dataset": self.dataset, "model": self.model, "digest": self.digest}


def _freeze(value: Any) -> Any:
    """Recursively convert JSON lists to tuples so dataclasses stay frozen."""
    if isinstance(value, list):
        return tuple(_freeze(item) for item in value)
    if isinstance(value, Mapping):
        return {key: _freeze(item) for key, item in value.items()}
    return value


def _thaw(value: Any) -> Any:
    """Inverse of :func:`_freeze`: tuples back to lists for JSON output."""
    if isinstance(value, tuple):
        return [_thaw(item) for item in value]
    if isinstance(value, Mapping):
        return {key: _thaw(item) for key, item in value.items()}
    if isinstance(value, WireType):
        return value.to_dict()
    return value


def encode_payload(payload: Mapping[str, Any]) -> bytes:
    """Deterministic UTF-8 JSON bytes for a wire payload."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=json_default
    ).encode("utf-8")


@dataclass(frozen=True, kw_only=True)
class WireType(ReportableMixin):
    """Shared round-trip machinery for every request/response dataclass.

    ``to_dict`` emits every field (tuples as lists, nested wire types as
    dicts); ``from_dict`` rejects unknown keys and foreign schema
    versions, re-freezes sequences, and rebuilds nested types declared in
    the subclass's ``_NESTED`` map.  Constructors are keyword-only and
    instances are immutable, mirroring ``DiscoveryConfig``/``TrainConfig``.
    """

    schema_version: str = SCHEMA_VERSION

    # Field name -> element wire type, for tuple-of-dataclass fields.
    _NESTED: ClassVar[Mapping[str, type]] = {}

    def __post_init__(self) -> None:
        if self.schema_version != SCHEMA_VERSION:
            raise BadRequestError(
                f"{type(self).__name__}: unsupported schema_version "
                f"{self.schema_version!r} (this build speaks {SCHEMA_VERSION!r})"
            )
        self.validate()

    def validate(self) -> None:
        """Subclass hook for field validation; raises :class:`BadRequestError`."""

    def summary(self) -> dict[str, Any]:
        return {"schema_version": self.schema_version}

    def to_dict(self) -> dict[str, Any]:
        return {spec.name: _thaw(getattr(self, spec.name)) for spec in fields(self)}

    def to_bytes(self) -> bytes:
        return encode_payload(self.to_dict())

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WireType":
        if not isinstance(data, Mapping):
            raise BadRequestError(f"{cls.__name__}: payload must be a JSON object")
        known = {spec.name for spec in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise BadRequestError(f"{cls.__name__}: unknown keys {unknown}")
        kwargs = {key: _freeze(value) for key, value in data.items()}
        for name, element_cls in cls._NESTED.items():
            if name in kwargs and isinstance(kwargs[name], tuple):
                kwargs[name] = tuple(
                    element_cls.from_dict(item) if isinstance(item, Mapping) else item
                    for item in kwargs[name]
                )
        try:
            return cls(**kwargs)
        except TypeError as error:
            raise BadRequestError(f"{cls.__name__}: {error}") from None

    @classmethod
    def from_bytes(cls, raw: bytes) -> "WireType":
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise BadRequestError(f"{cls.__name__}: invalid JSON body: {error}") from None
        return cls.from_dict(payload)


def _check_triples(owner: str, triples: Any) -> None:
    if not isinstance(triples, tuple) or not triples:
        raise BadRequestError(f"{owner}: triples must be a non-empty list")
    for triple in triples:
        if (
            not isinstance(triple, tuple)
            or len(triple) != 3
            or not all(isinstance(part, int) and not isinstance(part, bool) for part in triple)
        ):
            raise BadRequestError(
                f"{owner}: each triple must be three integers, got {triple!r}"
            )


@dataclass(frozen=True, kw_only=True)
class RankRequest(WireType):
    """Rank the true entity of each triple against all corruptions.

    ``filter`` picks the filtered-setting triple set: ``train`` (the
    discovery protocol's setting), ``all`` (train+valid+test, the
    standard evaluation protocol) or ``none`` (raw ranks).
    """

    model: str
    triples: tuple[tuple[int, int, int], ...]
    side: str = "object"
    filter: str = "train"

    def validate(self) -> None:
        _check_triples("RankRequest", self.triples)
        if self.side not in _RANK_SIDES:
            raise BadRequestError(f"RankRequest: side must be one of {_RANK_SIDES}")
        if self.filter not in _RANK_FILTERS:
            raise BadRequestError(f"RankRequest: filter must be one of {_RANK_FILTERS}")


@dataclass(frozen=True, kw_only=True)
class DiscoverRequest(WireType):
    """Run the paper's discovery protocol against a served model."""

    model: str
    strategy: str = "entity_frequency"
    top_n: int = 50
    max_candidates: int = 500
    relations: tuple[int, ...] | None = None
    seed: int = 0

    def validate(self) -> None:
        if self.top_n <= 0:
            raise BadRequestError("DiscoverRequest: top_n must be positive")
        if self.max_candidates <= 0:
            raise BadRequestError("DiscoverRequest: max_candidates must be positive")
        if self.relations is not None and not all(
            isinstance(rel, int) and not isinstance(rel, bool) for rel in self.relations
        ):
            raise BadRequestError("DiscoverRequest: relations must be integers")


@dataclass(frozen=True, kw_only=True)
class ClassifyRequest(WireType):
    """Score triples and classify them true/false at the tuned threshold."""

    model: str
    triples: tuple[tuple[int, int, int], ...]
    seed: int = 0
    hard_negatives: bool = False

    def validate(self) -> None:
        _check_triples("ClassifyRequest", self.triples)


@dataclass(frozen=True, kw_only=True)
class RankResponse(WireType):
    """Tie-averaged filtered ranks plus their MRR."""

    model: str
    side: str
    filter: str
    ranks: tuple[float, ...]
    mrr: float

    def summary(self) -> dict[str, Any]:
        return {"ranks_count": len(self.ranks), "mrr": self.mrr}


@dataclass(frozen=True, kw_only=True)
class DiscoverResponse(WireType):
    """Discovered facts in rank order, mirroring ``DiscoveryResult``."""

    model: str
    strategy: str
    top_n: int
    max_candidates: int
    seed: int
    facts: tuple[tuple[int, int, int], ...]
    ranks: tuple[float, ...]
    candidates_generated_count: int

    def summary(self) -> dict[str, Any]:
        return {
            "strategy": self.strategy,
            "facts_count": len(self.facts),
            "candidates_generated_count": self.candidates_generated_count,
        }


@dataclass(frozen=True, kw_only=True)
class ClassifyResponse(WireType):
    """Per-triple scores and boolean labels at the tuned threshold."""

    model: str
    threshold: float
    scores: tuple[float, ...]
    labels: tuple[bool, ...]

    def summary(self) -> dict[str, Any]:
        return {
            "labels_count": len(self.labels),
            "positives_count": sum(1 for label in self.labels if label),
        }


@dataclass(frozen=True, kw_only=True)
class ModelInfo(WireType):
    """One registry entry as reported by ``/v1/models``."""

    model_id: str
    dataset: str
    model: str
    digest: str
    dim: int
    entities_count: int
    relations_count: int
    seed: int
    loaded: bool

    def summary(self) -> dict[str, Any]:
        return {
            "dim": self.dim,
            "entities_count": self.entities_count,
            "relations_count": self.relations_count,
        }


@dataclass(frozen=True, kw_only=True)
class ModelsResponse(WireType):
    """The registry catalogue."""

    models: tuple[ModelInfo, ...]

    _NESTED: ClassVar[Mapping[str, type]] = {"models": ModelInfo}

    def summary(self) -> dict[str, Any]:
        return {
            "models_count": len(self.models),
            "loaded_count": sum(1 for info in self.models if info.loaded),
        }


@dataclass(frozen=True, kw_only=True)
class HealthResponse(WireType):
    """Liveness probe payload."""

    status: str = "ok"
    models_count: int = 0

    def summary(self) -> dict[str, Any]:
        return {"status": self.status, "models_count": self.models_count}


_REQUEST_TYPES: Mapping[str, type[WireType]] = {
    "rank": RankRequest,
    "discover": DiscoverRequest,
    "classify": ClassifyRequest,
}

_RESPONSE_TYPES: Mapping[str, type[WireType]] = {
    "rank": RankResponse,
    "discover": DiscoverResponse,
    "classify": ClassifyResponse,
    "models": ModelsResponse,
}


def request_type_for(endpoint: str) -> type[WireType]:
    """The request dataclass for a ``/v1/<endpoint>`` route."""
    try:
        return _REQUEST_TYPES[endpoint]
    except KeyError:
        raise NotFoundError(f"unknown endpoint {endpoint!r}") from None


def response_type_for(endpoint: str) -> type[WireType]:
    """The response dataclass for a ``/v1/<endpoint>`` route."""
    try:
        return _RESPONSE_TYPES[endpoint]
    except KeyError:
        raise NotFoundError(f"unknown endpoint {endpoint!r}") from None
