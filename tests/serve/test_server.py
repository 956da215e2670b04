"""HTTP endpoints end to end: typed responses, error envelopes, client mapping."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import (
    ClassifyRequest,
    DiscoverRequest,
    RankRequest,
)
from repro.api.types import (
    SCHEMA_VERSION,
    BadRequestError,
    ModelNotFoundError,
    NotFoundError,
)
from repro.obs import MetricsRegistry, use_registry
from repro.serve import ServeApp, ServeClient, ServeClientError, start_server


@pytest.fixture()
def app(session):
    return ServeApp(session)


@pytest.fixture()
def server(session):
    with use_registry(MetricsRegistry()):
        server = start_server(
            session, port=0, max_workers=4, observability=False
        )
        try:
            yield server
        finally:
            server.close()


@pytest.fixture()
def client(server):
    return ServeClient(server.url, timeout_seconds=30.0)


def _decode(payload: bytes) -> dict:
    return json.loads(payload.decode("utf-8"))


class TestAppEnvelopes:
    """Transport-agnostic handling: every outcome is schema bytes."""

    def test_unknown_route_is_a_404_envelope(self, app):
        status, content_type, payload = app.handle("GET", "/nope", b"")
        assert status == 404
        assert content_type == "application/json"
        body = _decode(payload)
        assert body["schema_version"] == SCHEMA_VERSION
        assert body["error"]["code"] == "not_found"

    def test_unknown_endpoint_404s_before_parsing(self, app):
        status, _, payload = app.handle("POST", "/v1/nope", b"{broken")
        assert status == 404
        assert _decode(payload)["error"]["code"] == "not_found"

    def test_invalid_json_body_is_a_400(self, app):
        status, _, payload = app.handle("POST", "/v1/rank", b"{broken")
        assert status == 400
        assert _decode(payload)["error"]["code"] == "bad_request"

    def test_non_object_body_is_a_400(self, app):
        status, _, payload = app.handle("POST", "/v1/rank", b"[1, 2]")
        assert status == 400
        assert "JSON object" in _decode(payload)["error"]["message"]

    def test_unknown_model_is_a_model_not_found(self, app, test_triples):
        body = json.dumps(
            {"model": "tiny/transe", "triples": list(map(list, test_triples))}
        ).encode()
        status, _, payload = app.handle("POST", "/v1/rank", body)
        assert status == 404
        assert _decode(payload)["error"]["code"] == "model_not_found"

    def test_unsupported_method_is_a_404(self, app):
        status, _, payload = app.handle("DELETE", "/v1/rank", b"")
        assert status == 404

    def test_healthz(self, app):
        status, _, payload = app.handle("GET", "/healthz", b"")
        assert status == 200
        body = _decode(payload)
        assert body["status"] == "ok"
        assert body["models_count"] == 1


class TestHttpEndpoints:
    def test_health_round_trip(self, client):
        health = client.health()
        assert health.status == "ok"
        assert health.models_count == 1

    def test_models_catalogue(self, client, model_id):
        models = client.models()
        (info,) = models.models
        assert info.model_id == model_id
        assert info.model == "distmult"
        assert info.entities_count == 40

    def test_rank_matches_in_process_session(
        self, client, session, model_id, test_triples
    ):
        request = RankRequest(model=model_id, triples=test_triples)
        served = client.rank(request)
        direct = session.rank(request)
        assert served == direct  # bit-identical across transports

    def test_rank_matches_offline_engine(
        self, client, model_id, test_triples, trained_distmult, tiny_graph
    ):
        from repro.kge.ranking import RankingEngine

        served = client.rank(RankRequest(model=model_id, triples=test_triples))
        offline = RankingEngine().compute_ranks(
            trained_distmult,
            np.asarray(test_triples, dtype=np.int64),
            filter_triples=tiny_graph.train,
            side="object",
        )
        np.testing.assert_array_equal(np.asarray(served.ranks), offline)

    def test_discover_matches_offline_protocol(
        self, client, model_id, trained_distmult, tiny_graph
    ):
        from repro.discovery import discover_facts

        request = DiscoverRequest(
            model=model_id, strategy="entity_frequency", top_n=15,
            max_candidates=100, seed=0,
        )
        served = client.discover(request)
        offline = discover_facts(
            trained_distmult, tiny_graph, strategy="entity_frequency",
            top_n=15, max_candidates=100, seed=0,
        )
        assert served.facts == tuple(
            (int(s), int(r), int(o)) for s, r, o in offline.facts
        )
        np.testing.assert_array_equal(np.asarray(served.ranks), offline.ranks)
        assert served.candidates_generated_count == offline.candidates_generated

    def test_classify_labels_match_threshold(self, client, model_id, test_triples):
        response = client.classify(
            ClassifyRequest(model=model_id, triples=test_triples)
        )
        assert len(response.scores) == len(test_triples)
        for score, label in zip(response.scores, response.labels):
            assert label == (score >= response.threshold)

    def test_metrics_exposition(self, client, model_id, test_triples):
        client.rank(RankRequest(model=model_id, triples=test_triples))
        text = client.metrics()
        assert "# TYPE repro_serve_requests_count counter" in text
        assert "repro_serve_model_loads_count" in text

    def test_sequential_requests_reuse_the_connection_state(
        self, client, model_id, test_triples
    ):
        request = RankRequest(model=model_id, triples=test_triples)
        first = client.rank(request)
        second = client.rank(request)
        assert first == second


class TestClientErrorMapping:
    def test_unknown_model_raises_typed_error(self, client, test_triples):
        with pytest.raises(ModelNotFoundError):
            client.rank(RankRequest(model="tiny/transe", triples=test_triples))

    def test_unknown_endpoint_raises_not_found(self, client):
        with pytest.raises(NotFoundError):
            client.post("nope", {"model": "tiny/distmult"})

    def test_unknown_keys_raise_bad_request(self, client):
        with pytest.raises(BadRequestError, match="unknown keys"):
            client.post("rank", {"model": "tiny/distmult", "bogus": 1})

    def test_unreachable_server_raises_transport_error(self):
        dead = ServeClient("http://127.0.0.1:9", timeout_seconds=0.5)
        with pytest.raises(ServeClientError):
            dead.health()

    def test_envelope_without_error_detail_is_a_transport_error(self):
        from repro.serve.client import error_from_envelope

        error = error_from_envelope({"schema_version": SCHEMA_VERSION})
        assert type(error) is ServeClientError
        assert "malformed error envelope" in str(error)
        assert type(error_from_envelope({"error": {"code": "mystery"}})).__name__ == "ApiError"

    @pytest.mark.parametrize(
        "reply,match",
        [(b"<html>502</html>", "non-JSON response"), (b"[1, 2]", "unexpected response shape")],
    )
    def test_undecodable_replies_are_transport_errors(self, monkeypatch, reply, match):
        client = ServeClient("http://127.0.0.1:9")
        monkeypatch.setattr(client, "_exchange", lambda *args, **kwargs: reply)
        with pytest.raises(ServeClientError, match=match):
            client.health()


class TestLifecycle:
    def test_close_is_idempotent_and_releases_the_port(self, session):
        with use_registry(MetricsRegistry()):
            server = start_server(session, port=0, observability=False)
            url = server.url
            client = ServeClient(url, timeout_seconds=5.0)
            assert client.health().status == "ok"
            server.close()
            server.close()  # second close is a no-op
            with pytest.raises(ServeClientError):
                client.health()

    def test_unstarted_server_close_does_not_hang(self, session):
        from repro.serve import DiscoveryServer

        server = DiscoveryServer(ServeApp(session))
        server.close()  # must return promptly without serve_forever running

    def test_close_switches_off_the_registry_start_server_installed(self, session):
        from repro.obs import get_registry

        assert get_registry().enabled is False
        server = start_server(session, port=0)
        try:
            assert get_registry().enabled is True
            assert ServeClient(server.url, timeout_seconds=5.0).health().status == "ok"
        finally:
            server.close()
        assert get_registry().enabled is False
        server.close()  # the second close restores nothing twice

    def test_close_keeps_a_registry_the_caller_installed(self, session):
        from repro.obs import get_registry

        with use_registry(MetricsRegistry()) as mine:
            server = start_server(session, port=0)
            server.close()
            assert get_registry() is mine
