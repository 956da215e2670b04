"""The ``repro serve`` and ``repro query`` verbs, driven through ``main``."""

from __future__ import annotations

import json

import pytest

from repro.api import ClassifyRequest, DiscoverRequest, RankRequest
from repro.cli import main
from repro.kg import save_dataset_dir
from repro.obs import MetricsRegistry, use_registry
from repro.serve import start_server


@pytest.fixture()
def server(session):
    with use_registry(MetricsRegistry()):
        server = start_server(session, port=0, max_workers=2, observability=False)
        try:
            yield server
        finally:
            server.close()


def _query(capsys, *argv) -> tuple[int, str, str]:
    code = main(["query", *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestQueryCommand:
    def test_health(self, server, capsys):
        code, out, _ = _query(capsys, server.url, "health")
        assert code == 0
        body = json.loads(out)
        assert body["status"] == "ok"
        assert body["models_count"] == 1

    def test_models_lists_the_registered_checkpoint(self, server, model_id, capsys):
        code, out, _ = _query(capsys, server.url, "models")
        assert code == 0
        assert [m["model_id"] for m in json.loads(out)["models"]] == [model_id]

    def test_metrics_prints_the_exposition(self, server, capsys):
        code, out, _ = _query(capsys, server.url, "metrics")
        assert code == 0
        assert "# TYPE repro_serve_requests_count counter" in out

    def test_rank_matches_the_in_process_session(
        self, server, session, model_id, test_triples, capsys
    ):
        payload = {"model": model_id, "triples": [list(t) for t in test_triples]}
        code, out, _ = _query(
            capsys, server.url, "rank", "--data", json.dumps(payload)
        )
        assert code == 0
        offline = session.rank(RankRequest.from_dict(payload))
        assert json.loads(out) == json.loads(offline.to_json())

    def test_discover_matches_the_in_process_session(
        self, server, session, model_id, capsys
    ):
        payload = {"model": model_id, "top_n": 10, "max_candidates": 36, "seed": 2}
        code, out, _ = _query(
            capsys, server.url, "discover", "--data", json.dumps(payload)
        )
        assert code == 0
        offline = session.discover(DiscoverRequest.from_dict(payload))
        served = json.loads(out)
        expected = json.loads(offline.to_json())
        assert served["facts"] == expected["facts"]
        assert served["ranks"] == expected["ranks"]

    def test_classify_matches_the_in_process_session(
        self, server, session, model_id, test_triples, capsys
    ):
        payload = {"model": model_id, "triples": [list(t) for t in test_triples]}
        code, out, _ = _query(
            capsys, server.url, "classify", "--data", json.dumps(payload)
        )
        assert code == 0
        body = json.loads(out)
        assert len(body["labels"]) == len(test_triples)
        offline = session.classify(ClassifyRequest.from_dict(payload))
        assert body == json.loads(offline.to_json())

    def test_server_side_error_exits_1_with_its_code(
        self, server, test_triples, capsys
    ):
        payload = {"model": "tiny/transe", "triples": [list(t) for t in test_triples]}
        code, out, err = _query(
            capsys, server.url, "rank", "--data", json.dumps(payload)
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error [model_not_found]")

    def test_unknown_request_keys_fail_before_sending(self, server, capsys):
        code, _, err = _query(
            capsys, server.url, "rank", "--data", '{"model": "m", "bogus": 1}'
        )
        assert code == 1
        assert err.startswith("error [bad_request]")
        assert "bogus" in err

    def test_malformed_data_exits(self, server):
        with pytest.raises(SystemExit, match="--data is not valid JSON"):
            main(["query", server.url, "rank", "--data", "{broken"])


class TestServeCommand:
    def test_serves_for_a_duration_then_stops(
        self, tmp_path, tiny_graph, checkpoint_path, capsys
    ):
        save_dataset_dir(tiny_graph, tmp_path / "tiny")
        code = main(
            [
                "serve", "--models", f"{tmp_path / 'tiny'}={checkpoint_path}",
                "--port", "0", "--procs", "2", "--duration", "0.2",
                "--cell-deadline", "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "registered " in out
        assert "serving 1 model(s) on http://127.0.0.1:" in out
        assert "(2 workers, 5.0s request deadline)" in out
        assert out.rstrip().endswith("server stopped")

    def test_models_entry_without_a_checkpoint_exits(self):
        with pytest.raises(SystemExit, match="DATASET=CHECKPOINT"):
            main(["serve", "--models", "tiny", "--port", "0", "--duration", "0"])
