"""The ``/metrics`` exposition is a pinned wire format.

The registry is prepopulated through the public metric APIs with exact
values (no clocks), so the bytes the endpoint returns are fully
deterministic: ``serve.requests_count`` increments once for the GET
itself before routing, while ``serve.request_seconds`` is only observed
after the payload is rendered and therefore never appears mid-flight.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.api import RankRequest
from repro.obs import MetricsRegistry, use_registry
from repro.serve import ServeApp

GOLDEN = Path(__file__).parent / "golden" / "metrics.prom"


def build_serving_registry() -> MetricsRegistry:
    """A registry mid-life: 41 requests served, the 42nd is the scrape."""
    reg = MetricsRegistry()
    reg.counter("serve.requests_count").inc(41)
    reg.counter("serve.errors_count").inc(2)
    reg.counter("serve.model_hits_count").inc(28)
    reg.counter("serve.model_loads_count").inc(2)
    reg.counter("serve.model_evictions_count").inc(1)
    reg.counter("serve.flight_leads_count").inc(30)
    reg.counter("serve.coalesced_count").inc(12)
    reg.counter("serve.connection_errors_count").inc(3)
    hist = reg.histogram("serve.request_seconds", buckets=(0.005, 0.05, 0.5))
    for value in (0.001, 0.004, 0.02, 0.2, 0.7):
        hist.observe(value)
    return reg


class TestGoldenExposition:
    def test_metrics_endpoint_matches_golden_bytes(self, session):
        app = ServeApp(session)
        with use_registry(build_serving_registry()):
            status, content_type, payload = app.handle("GET", "/metrics", b"")
        assert status == 200
        assert content_type == "text/plain; version=0.0.4"
        assert payload == GOLDEN.read_bytes()

    def test_scrape_counts_itself(self, session):
        app = ServeApp(session)
        with use_registry(build_serving_registry()):
            _, _, payload = app.handle("GET", "/metrics", b"")
        assert b"repro_serve_requests_count 42" in payload

    def test_repeated_scrapes_differ_only_in_request_accounting(self, session):
        app = ServeApp(session)
        with use_registry(build_serving_registry()):
            _, _, first = app.handle("GET", "/metrics", b"")
            _, _, second = app.handle("GET", "/metrics", b"")
        changed = [
            (a, b)
            for a, b in zip(first.splitlines(), second.splitlines())
            if a != b
        ]
        for before, after in changed:
            name = before.split(b" ")[0].split(b"{")[0]
            assert name in (
                b"repro_serve_requests_count",
                b"repro_serve_request_seconds_bucket",
                b"repro_serve_request_seconds_count",
                b"repro_serve_request_seconds_sum",
            ), before


class TestVocabulary:
    """Canonical ``*_seconds``/``*_count`` suffixes hold for everything serve emits."""

    def test_live_serve_metric_names_are_canonical(
        self, session, model_id, test_triples
    ):
        reg = MetricsRegistry()
        app = ServeApp(session)
        with use_registry(reg):
            body = RankRequest(model=model_id, triples=test_triples).to_bytes()
            assert app.handle("POST", "/v1/rank", body)[0] == 200
            assert app.handle("POST", "/v1/rank", body)[0] == 200  # warm hit
            assert app.handle("POST", "/v1/rank", b"{broken")[0] == 400
            assert app.handle("GET", "/metrics", b"")[0] == 200
        snapshot = reg.snapshot()
        names = [
            name
            for section in ("counters", "gauges", "histograms")
            for name in snapshot[section]
            if name.startswith("serve.")
        ]
        assert "serve.requests_count" in names
        assert "serve.errors_count" in names
        assert "serve.request_seconds" in names
        for name in names:
            assert name.endswith(("_count", "_seconds")), name
