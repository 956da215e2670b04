"""Wire-type contracts: round-trips, validation, and schema versioning."""

from __future__ import annotations

import json

import pytest

from repro.api import (
    ClassifyRequest,
    ClassifyResponse,
    DiscoverRequest,
    DiscoverResponse,
    HealthResponse,
    ModelInfo,
    ModelsResponse,
    RankRequest,
    RankResponse,
)
from repro.api.types import (
    SCHEMA_VERSION,
    ApiError,
    BadRequestError,
    DeadlineError,
    ModelNotFoundError,
    ModelRef,
    NotFoundError,
    config_digest,
    encode_payload,
    request_type_for,
    response_type_for,
)
from repro.obs import Reportable

TRIPLES = ((0, 1, 2), (3, 0, 5))

SAMPLES = [
    RankRequest(model="d/m", triples=TRIPLES, side="subject", filter="all"),
    DiscoverRequest(model="d/m", strategy="uniform_random", top_n=10, seed=3),
    ClassifyRequest(model="d/m", triples=TRIPLES, hard_negatives=True),
    RankResponse(model="d/m", side="object", filter="train", ranks=(1.0, 2.5), mrr=0.7),
    DiscoverResponse(
        model="d/m", strategy="entity_frequency", top_n=5, max_candidates=50,
        seed=0, facts=TRIPLES, ranks=(1.0, 2.0), candidates_generated_count=40,
    ),
    ClassifyResponse(model="d/m", threshold=0.5, scores=(0.9, 0.1), labels=(True, False)),
    ModelInfo(
        model_id="d/m@abc", dataset="d", model="m", digest="abc",
        dim=16, entities_count=40, relations_count=4, seed=0, loaded=True,
    ),
    HealthResponse(status="ok", models_count=2),
]


class TestRoundTrip:
    @pytest.mark.parametrize("value", SAMPLES, ids=lambda v: type(v).__name__)
    def test_dict_round_trip_is_identity(self, value):
        assert type(value).from_dict(value.to_dict()) == value

    @pytest.mark.parametrize("value", SAMPLES, ids=lambda v: type(v).__name__)
    def test_bytes_round_trip_is_identity(self, value):
        assert type(value).from_bytes(value.to_bytes()) == value

    def test_nested_models_rebuild_from_plain_dicts(self):
        response = ModelsResponse(models=(SAMPLES[6],))
        clone = ModelsResponse.from_dict(json.loads(response.to_bytes()))
        assert clone == response
        assert isinstance(clone.models[0], ModelInfo)

    def test_payloads_carry_schema_version(self):
        for value in SAMPLES:
            assert value.to_dict()["schema_version"] == SCHEMA_VERSION

    def test_responses_speak_reportable(self):
        for value in SAMPLES:
            assert isinstance(value, Reportable)

    def test_summaries_count_what_each_payload_carries(self):
        rank, discover, classify, info, health = (
            SAMPLES[3], SAMPLES[4], SAMPLES[5], SAMPLES[6], SAMPLES[7],
        )
        assert rank.summary() == {"ranks_count": 2, "mrr": 0.7}
        assert discover.summary() == {
            "strategy": "entity_frequency",
            "facts_count": 2,
            "candidates_generated_count": 40,
        }
        assert classify.summary() == {"labels_count": 2, "positives_count": 1}
        assert info.summary() == {
            "dim": 16, "entities_count": 40, "relations_count": 4,
        }
        assert ModelsResponse(models=(info,)).summary() == {
            "models_count": 1, "loaded_count": 1,
        }
        assert health.summary() == {"status": "ok", "models_count": 2}
        # Requests report only the schema they speak.
        assert SAMPLES[0].summary() == {"schema_version": SCHEMA_VERSION}


class TestRejection:
    def test_unknown_keys_rejected(self):
        payload = RankRequest(model="d/m", triples=TRIPLES).to_dict()
        payload["extra"] = 1
        with pytest.raises(BadRequestError, match="unknown keys.*extra"):
            RankRequest.from_dict(payload)

    def test_foreign_schema_version_rejected(self):
        payload = RankRequest(model="d/m", triples=TRIPLES).to_dict()
        payload["schema_version"] = "v999"
        with pytest.raises(BadRequestError, match="unsupported schema_version"):
            RankRequest.from_dict(payload)

    def test_missing_required_field_rejected(self):
        with pytest.raises(BadRequestError, match="RankRequest"):
            RankRequest.from_dict({"model": "d/m"})

    def test_positional_construction_is_impossible(self):
        with pytest.raises(TypeError):
            RankRequest("d/m", TRIPLES)

    def test_invalid_json_bytes_rejected(self):
        with pytest.raises(BadRequestError, match="invalid JSON"):
            RankRequest.from_bytes(b"{nope")

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(model="d/m", triples=()), "non-empty"),
            (dict(model="d/m", triples=((0, 1),)), "three integers"),
            (dict(model="d/m", triples=((0, 1, True),)), "three integers"),
            (dict(model="d/m", triples=TRIPLES, side="left"), "side"),
            (dict(model="d/m", triples=TRIPLES, filter="valid"), "filter"),
        ],
    )
    def test_rank_request_validation(self, kwargs, match):
        with pytest.raises(BadRequestError, match=match):
            RankRequest(**kwargs)

    def test_discover_request_validation(self):
        with pytest.raises(BadRequestError, match="top_n"):
            DiscoverRequest(model="d/m", top_n=0)
        with pytest.raises(BadRequestError, match="max_candidates"):
            DiscoverRequest(model="d/m", max_candidates=-1)
        with pytest.raises(BadRequestError, match="relations"):
            DiscoverRequest(model="d/m", relations=("zero",))


class TestModelRef:
    def test_parse_full_and_digestless(self):
        ref = ModelRef.parse("wn/distmult@abc123")
        assert (ref.dataset, ref.model, ref.digest) == ("wn", "distmult", "abc123")
        assert ref.model_id == "wn/distmult@abc123"
        bare = ModelRef.parse("wn/distmult")
        assert bare.digest == ""
        assert bare.model_id == "wn/distmult"

    def test_to_dict_carries_the_parsed_parts(self):
        assert ModelRef.parse("wn/distmult@abc123").to_dict() == {
            "dataset": "wn", "model": "distmult", "digest": "abc123",
        }
        assert ModelRef.parse("wn/distmult").to_dict()["digest"] == ""

    @pytest.mark.parametrize("bad", ["", "nodataset", "/m", "d/", "d"])
    def test_parse_rejects_malformed_ids(self, bad):
        with pytest.raises(BadRequestError):
            ModelRef.parse(bad)


class TestDigestAndEncoding:
    HEADER = {
        "model": "distmult", "num_entities": 40, "num_relations": 4,
        "dim": 16, "seed": 0, "options": {},
    }

    def test_digest_is_stable_and_12_hex(self):
        digest = config_digest(self.HEADER)
        assert digest == config_digest(dict(self.HEADER))
        assert len(digest) == 12
        int(digest, 16)

    def test_digest_forks_on_config_change(self):
        assert config_digest(self.HEADER) != config_digest(
            {**self.HEADER, "seed": 1}
        )

    def test_digest_ignores_training_state_fields(self):
        assert config_digest(self.HEADER) == config_digest(
            {**self.HEADER, "checksum": "deadbeef"}
        )

    def test_encode_payload_is_key_order_independent(self):
        assert encode_payload({"b": 1, "a": 2}) == encode_payload({"a": 2, "b": 1})


class TestErrorTaxonomy:
    def test_envelope_shape(self):
        envelope = ModelNotFoundError("gone").envelope()
        assert envelope == {
            "schema_version": SCHEMA_VERSION,
            "error": {"code": "model_not_found", "status": 404, "message": "gone"},
        }

    def test_status_codes(self):
        assert ApiError.status == 500
        assert BadRequestError.status == 400
        assert NotFoundError.status == 404
        assert ModelNotFoundError.status == 404
        assert DeadlineError.status == 504

    def test_endpoint_lookup(self):
        assert request_type_for("rank") is RankRequest
        assert response_type_for("discover") is DiscoverResponse
        with pytest.raises(NotFoundError):
            request_type_for("nope")
