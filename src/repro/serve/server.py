"""The stdlib-only threaded HTTP server for discovery-as-a-service.

Two layers:

- :class:`ServeApp` — transport-agnostic request handling.  It owns the
  single-flight coalescer, mints per-request deadlines, dispatches to
  the shared :class:`~repro.api.Session`, and renders every outcome
  (including failures) as wire bytes.  The load benchmark drives this
  layer directly, so benchmarked throughput includes the full JSON
  encode/decode and coalescing cost of a real request minus the socket.
- :class:`DiscoveryServer` — an :class:`http.server.HTTPServer` whose
  connections are handled on a **bounded** worker pool (unbounded
  thread-per-connection is exactly the overload failure mode a serving
  layer must not have).  ``close()`` drains gracefully: stop accepting,
  wait out in-flight requests up to ``drain_seconds``, then tear down.

Endpoints: ``GET /healthz``, ``GET /metrics`` (Prometheus text from the
live :mod:`repro.obs` registry), ``GET /v1/models``, and JSON ``POST``
``/v1/rank`` / ``/v1/discover`` / ``/v1/classify``.  Error responses are
the one :class:`~repro.api.types.ApiError` envelope; deadline expiry
maps to a typed 504.
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, HTTPServer

from ..api.session import Session
from ..api.types import (
    ApiError,
    BadRequestError,
    NotFoundError,
    encode_payload,
    request_type_for,
)
from ..obs import (
    MetricsRegistry,
    enable_observability,
    get_registry,
    render_prometheus,
    set_registry,
)
from ..obs.spans import Stopwatch
from ..resilience import Deadline
from .coalesce import SingleFlight

__all__ = ["ServeApp", "DiscoveryServer", "start_server"]

_JSON = "application/json"
_TEXT = "text/plain; version=0.0.4"

# Drain polling slice; every wait in this module is bounded (RPR018).
_WAIT_SLICE_SECONDS = 0.05


class ServeApp:
    """Routes one decoded HTTP exchange through the shared session."""

    def __init__(
        self,
        session: Session,
        *,
        deadline_seconds: float | None = None,
    ) -> None:
        self._session = session
        self._flight = SingleFlight()
        self._deadline_seconds = deadline_seconds

    @property
    def session(self) -> Session:
        return self._session

    def coalescing_counters(self) -> dict[str, int]:
        return self._flight.counters()

    def handle(self, method: str, path: str, body: bytes) -> tuple[int, str, bytes]:
        """One request in, ``(status, content_type, payload)`` out.

        Never raises: typed :class:`ApiError` failures serialise to their
        envelope, anything else becomes the generic 500 ``internal``
        envelope so the wire never leaks stack traces.
        """
        metrics = get_registry()
        metrics.counter("serve.requests_count").inc()
        watch = Stopwatch()
        try:
            status, content_type, payload = self._route(method, path, body)
        except ApiError as error:
            metrics.counter("serve.errors_count").inc()
            status, content_type, payload = (
                error.status,
                _JSON,
                encode_payload(error.envelope()),
            )
        except Exception as error:
            # A server maps unexpected failures (corrupt checkpoint, bad
            # state) to a 500 envelope instead of killing the worker; the
            # taxonomy is the contract, the message carries the cause.
            metrics.counter("serve.errors_count").inc()
            internal = ApiError(f"{type(error).__name__}: {error}")
            status, content_type, payload = (
                internal.status,
                _JSON,
                encode_payload(internal.envelope()),
            )
        metrics.histogram("serve.request_seconds").observe(watch.elapsed_seconds)
        return status, content_type, payload

    def _route(self, method: str, path: str, body: bytes) -> tuple[int, str, bytes]:
        if method == "GET":
            if path == "/healthz":
                return 200, _JSON, self._session.health().to_bytes()
            if path == "/metrics":
                text = render_prometheus(get_registry().snapshot())
                return 200, _TEXT, text.encode("utf-8")
            if path == "/v1/models":
                return 200, _JSON, self._session.models().to_bytes()
            raise NotFoundError(f"no route GET {path}")
        if method == "POST":
            prefix = "/v1/"
            if not path.startswith(prefix):
                raise NotFoundError(f"no route POST {path}")
            endpoint = path[len(prefix) :]
            request_type_for(endpoint)  # unknown endpoints 404 before parsing
            try:
                payload = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                raise BadRequestError(f"invalid JSON body: {error}") from None
            if not isinstance(payload, dict):
                raise BadRequestError("request body must be a JSON object")
            deadline = (
                Deadline.after(self._deadline_seconds)
                if self._deadline_seconds is not None
                else None
            )
            key = (endpoint, encode_payload(payload))
            response = self._flight.run(
                key,
                lambda: self._session.execute(endpoint, payload, deadline),
                deadline,
            )
            return 200, _JSON, response.to_bytes()
        raise NotFoundError(f"unsupported method {method}")


class _Handler(BaseHTTPRequestHandler):
    """Thin adapter from the socket to :meth:`ServeApp.handle`."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    timeout = 30.0  # a stalled client cannot park a worker forever

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length) if length > 0 else b""
        status, content_type, payload = self.server.app.handle(
            method, self.path, body
        )
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format: str, *args: object) -> None:
        """Silence per-request stderr logging; /metrics is the signal."""


class DiscoveryServer(HTTPServer):
    """HTTP server with a bounded worker pool and graceful draining."""

    def __init__(
        self,
        app: ServeApp,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_workers: int = 8,
        drain_seconds: float = 5.0,
    ) -> None:
        super().__init__((host, port), _Handler)
        self.app = app
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-serve"
        )
        self._cond = threading.Condition()
        self._inflight = 0
        self._draining = False
        self._drain_seconds = drain_seconds
        self._accept_thread: threading.Thread | None = None
        #: Registry to reinstate on close, when start_server installed one.
        self._restore_registry: MetricsRegistry | None = None

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    # -- socketserver integration --------------------------------------

    def process_request(self, request, client_address) -> None:
        """Hand the accepted connection to the bounded pool."""
        with self._cond:
            if self._draining:
                self.shutdown_request(request)
                return
            self._inflight += 1
        try:
            self._pool.submit(self._work, request, client_address)
        except RuntimeError:
            # Pool already shut down: refuse the connection.
            with self._cond:
                self._inflight -= 1
                self._cond.notify_all()
            self.shutdown_request(request)

    def _work(self, request, client_address) -> None:
        try:
            self.finish_request(request, client_address)
        except Exception:
            # A torn client socket must not take down the worker;
            # socketserver's handle_error hook is the sanctioned reporter.
            self.handle_error(request, client_address)
        finally:
            self.shutdown_request(request)
            with self._cond:
                self._inflight -= 1
                self._cond.notify_all()

    def handle_error(self, request, client_address) -> None:
        get_registry().counter("serve.connection_errors_count").inc()

    # -- lifecycle -----------------------------------------------------

    def start(self) -> threading.Thread:
        """Serve in a daemon thread; returns it (joined by ``close``)."""
        thread = threading.Thread(
            target=self.serve_forever,
            kwargs={"poll_interval": _WAIT_SLICE_SECONDS},
            name="repro-serve-accept",
            daemon=True,
        )
        with self._cond:
            self._accept_thread = thread
        thread.start()
        return thread

    def close(self, drain: bool = True) -> None:
        """Stop accepting, drain in-flight requests, release the socket."""
        with self._cond:
            started = self._accept_thread is not None
        if started:
            # shutdown() blocks until serve_forever's loop notices; only
            # meaningful (and safe) once the accept thread is running.
            self.shutdown()
        deadline = (
            Deadline.after(self._drain_seconds)
            if drain and self._drain_seconds > 0
            else None
        )
        with self._cond:
            self._draining = True
            while self._inflight > 0 and deadline is not None:
                if deadline.expired():
                    break
                self._cond.wait(timeout=_WAIT_SLICE_SECONDS)
            thread = self._accept_thread
        self._pool.shutdown(wait=False)
        if thread is not None:
            thread.join(timeout=self._drain_seconds)
        self.server_close()
        if self._restore_registry is not None:
            set_registry(self._restore_registry)
            self._restore_registry = None


def start_server(
    session: Session,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    max_workers: int = 8,
    deadline_seconds: float | None = None,
    drain_seconds: float = 5.0,
    observability: bool = True,
) -> DiscoveryServer:
    """Build and start a server for ``session``; caller owns ``close()``.

    By default the process-global metrics registry is switched on so
    ``/metrics`` reports live traffic, and ``close()`` switches it back;
    pass ``observability=False`` to leave the ambient (possibly null)
    registry untouched.
    """
    app = ServeApp(session, deadline_seconds=deadline_seconds)
    server = DiscoveryServer(
        app,
        host=host,
        port=port,
        max_workers=max_workers,
        drain_seconds=drain_seconds,
    )
    if observability and not get_registry().enabled:
        server._restore_registry = get_registry()
        enable_observability()
    server.start()
    return server
