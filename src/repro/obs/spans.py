"""Nestable span timers and the sanctioned stopwatch.

``span("train.epoch")`` is a context manager that always measures wall
time (``.wall_seconds`` is valid whether or not observability is on — the
result objects' ``*_seconds`` fields are fed from it), but only records
into the active registry's trace tree when that registry is enabled.  The
disabled path is two ``perf_counter()`` calls and an attribute check,
which is what keeps the instrumentation overhead under the benchmarked
1% budget (``benchmarks/bench_obs_overhead.py``).

Nesting is tracked per thread: a span opened on another thread (e.g.
``serve.app.handle`` on a server thread) roots its own subtree rather
than guessing a parent from another thread's stack.
"""

from __future__ import annotations

import time
from typing import Any

from .registry import MetricsRegistry, get_registry

__all__ = [
    "Span",
    "span",
    "Stopwatch",
    "SpanDelta",
    "flatten_spans",
    "span_tree_delta",
]


class Span:
    """A single timed section; use via the :func:`span` factory.

    After ``__exit__``, ``wall_seconds`` and (when recording)``cpu_seconds``
    hold the measured durations; they stay 0.0 while the span is open.
    """

    __slots__ = ("name", "wall_seconds", "cpu_seconds", "_registry", "_recording", "_t0", "_c0")

    def __init__(self, name: str, registry: MetricsRegistry | None = None) -> None:
        self.name = name
        self.wall_seconds = 0.0
        self.cpu_seconds = 0.0
        self._registry = registry
        self._recording = False

    def __enter__(self) -> "Span":
        registry = self._registry if self._registry is not None else get_registry()
        self._registry = registry
        self._recording = registry.enabled
        if self._recording:
            registry._push_span(self.name)
            self._c0 = time.process_time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.wall_seconds = time.perf_counter() - self._t0
        if self._recording:
            self.cpu_seconds = time.process_time() - self._c0
            self._registry._pop_span(self.name, self.wall_seconds, self.cpu_seconds)
        return False


def span(name: str, registry: MetricsRegistry | None = None) -> Span:
    """Open a named timed section (see module docstring for semantics)."""
    return Span(name, registry)


class Stopwatch:
    """Monotonic elapsed-time reader for budget/deadline loops.

    The anytime-discovery budget loop needs *the time so far*, not a
    closed section, so a context manager is the wrong shape.  The
    instrumented packages read elapsed time through this wrapper rather
    than calling ``time.perf_counter()`` directly.
    """

    __slots__ = ("_t0",)

    def __init__(self) -> None:
        self._t0 = time.perf_counter()

    def restart(self) -> None:
        self._t0 = time.perf_counter()

    @property
    def elapsed_seconds(self) -> float:
        return time.perf_counter() - self._t0


def flatten_spans(spans: dict[str, Any], _prefix: str = "") -> dict[str, dict[str, Any]]:
    """Flatten a snapshot's nested span tree into ``{"a/b": {...}}`` rows.

    Input is the ``snapshot()["spans"]`` mapping; output maps the
    slash-joined path to ``{count, wall_seconds, cpu_seconds}`` and is
    ordered parent-before-child.
    """
    flat: dict[str, dict[str, Any]] = {}
    for name, node in spans.items():
        path = f"{_prefix}/{name}" if _prefix else name
        flat[path] = {
            "count": node["count"],
            "wall_seconds": node["wall_seconds"],
            "cpu_seconds": node["cpu_seconds"],
        }
        flat.update(flatten_spans(node.get("children", {}), path))
    return flat


def span_tree_delta(before: dict[str, Any], after: dict[str, Any]) -> dict[str, Any]:
    """Subtract two snapshot span trees (``after - before``), pruning zeros.

    Both arguments are ``snapshot()["spans"]`` mappings from the *same*
    registry; the result isolates what one section of work recorded, e.g.
    a single campaign cell out of a whole ``run_matrix``.
    """
    delta: dict[str, Any] = {}
    for name, node in after.items():
        prev = before.get(name, {})
        children = span_tree_delta(prev.get("children", {}), node.get("children", {}))
        count = node["count"] - prev.get("count", 0)
        if count == 0 and not children:
            continue
        delta[name] = {
            "count": count,
            "wall_seconds": node["wall_seconds"] - prev.get("wall_seconds", 0.0),
            "cpu_seconds": node["cpu_seconds"] - prev.get("cpu_seconds", 0.0),
            "children": children,
        }
    return delta


class SpanDelta:
    """The spans one section of work records, as flattened rows.

    Construct it where the section starts and call :meth:`flat` where it
    ends; the result is that section's :func:`span_tree_delta`, flattened
    by :func:`flatten_spans`.  It is ``{}`` when the registry was
    disabled at the start, since nothing was recorded.
    """

    __slots__ = ("_registry", "_before")

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self._registry = registry if registry is not None else get_registry()
        self._before = (
            self._registry.snapshot()["spans"] if self._registry.enabled else None
        )

    def flat(self) -> dict[str, dict[str, Any]]:
        if self._before is None:
            return {}
        after = self._registry.snapshot()["spans"]
        return flatten_spans(span_tree_delta(self._before, after))
