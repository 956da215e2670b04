"""Thread-safe metrics registry: counters, gauges, histograms, span trees.

The registry is the single sink for every instrument in the codebase.  A
process-global *active* registry (see :func:`get_registry`) defaults to a
:class:`NullRegistry` so that instrumented hot paths pay essentially
nothing until observability is switched on — the null backend hands out
shared no-op metric objects and records no spans.

Metric naming convention: durations end in ``_seconds``, event tallies
end in ``_count``.
"""

from __future__ import annotations

import bisect
import threading
from contextlib import contextmanager
from typing import Any, Iterator, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "DEFAULT_BUCKETS",
    "get_registry",
    "set_registry",
    "use_registry",
    "enable_observability",
    "disable_observability",
]

#: Default histogram bucket upper bounds (seconds-flavoured, Prometheus-style).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    60.0,
)


class Counter:
    """A monotonically increasing tally."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for levels")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int | float:
        with self._lock:
            return self._value


class Gauge:
    """A level that can move in both directions (last write wins)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram (cumulative counts on export, like Prometheus).

    ``buckets`` are the finite upper bounds; an implicit ``+Inf`` bucket
    catches everything above the last bound.
    """

    __slots__ = ("name", "buckets", "_counts", "_sum", "_count", "_lock")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be a non-empty ascending sequence")
        self.name = name
        self.buckets = tuple(float(b) for b in buckets)
        self._counts = [0] * (len(self.buckets) + 1)  # + the +Inf bucket
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        idx = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def as_dict(self) -> dict[str, Any]:
        with self._lock:
            return {
                "buckets": list(self.buckets),
                "counts": list(self._counts),
                "sum": self._sum,
                "count": self._count,
            }


class _SpanNode:
    """One node of the aggregated trace tree."""

    __slots__ = ("count", "wall_seconds", "cpu_seconds", "children")

    def __init__(self) -> None:
        self.count = 0
        self.wall_seconds = 0.0
        self.cpu_seconds = 0.0
        self.children: dict[str, "_SpanNode"] = {}

    def as_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "children": {name: child.as_dict() for name, child in self.children.items()},
        }


class MetricsRegistry:
    """Thread-safe home for counters, gauges, histograms and span trees.

    Metric accessors are get-or-create: ``registry.counter("x")`` always
    returns the same object for the same name, from any thread.  Span
    nesting is tracked per thread (a span opened on a worker thread roots
    its own subtree), while the aggregated trace tree is shared.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._span_root = _SpanNode()
        self._local = threading.local()

    # -- metric accessors -------------------------------------------------

    def counter(self, name: str) -> Counter:
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters[name] = Counter(name)
            return metric

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                metric = self._gauges[name] = Gauge(name)
            return metric

    def histogram(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                metric = self._histograms[name] = Histogram(name, buckets)
            return metric

    # -- span bookkeeping (used by repro.obs.spans) -----------------------

    def _span_stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push_span(self, name: str) -> None:
        self._span_stack().append(name)

    def _pop_span(self, name: str, wall_seconds: float, cpu_seconds: float) -> None:
        stack = self._span_stack()
        if stack and stack[-1] == name:
            stack.pop()
        self.record_span(tuple(stack) + (name,), wall_seconds, cpu_seconds)

    def record_span(
        self,
        path: Sequence[str],
        wall_seconds: float,
        cpu_seconds: float = 0.0,
        count: int = 1,
    ) -> None:
        """Fold one observation of ``path`` into the aggregated trace tree.

        ``path`` is the chain of span names from the root, e.g.
        ``("discover", "rank")``.  Exposed publicly so exporter tests can
        build deterministic trees without timing anything.
        """
        if not path:
            raise ValueError("span path must be non-empty")
        with self._lock:
            node = self._span_root
            for part in path:
                child = node.children.get(part)
                if child is None:
                    child = node.children[part] = _SpanNode()
                node = child
            node.count += count
            node.wall_seconds += wall_seconds
            node.cpu_seconds += cpu_seconds

    # -- snapshots --------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """A plain-dict, JSON-serialisable copy of everything recorded."""
        with self._lock:
            counters = {name: c.value for name, c in self._counters.items()}
            gauges = {name: g.value for name, g in self._gauges.items()}
            histograms = {name: h.as_dict() for name, h in self._histograms.items()}
            spans = {
                name: child.as_dict() for name, child in self._span_root.children.items()
            }
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "spans": spans,
        }

    def reset(self) -> None:
        """Drop every recorded value (metric objects are recreated lazily)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._span_root = _SpanNode()


class _NullMetric:
    """Shared do-nothing stand-in for every metric type."""

    __slots__ = ()
    name = "<null>"
    value = 0
    count = 0
    sum = 0.0

    def inc(self, amount: int | float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def as_dict(self) -> dict[str, Any]:
        return {}


_NULL_METRIC = _NullMetric()


class NullRegistry(MetricsRegistry):
    """The opt-out backend: accepts every call, records nothing.

    Installed as the process-global default so instrumented code runs at
    full speed (and produces bit-identical results) until observability
    is explicitly enabled.
    """

    enabled = False

    def counter(self, name: str) -> Counter:  # type: ignore[override]
        return _NULL_METRIC  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:  # type: ignore[override]
        return _NULL_METRIC  # type: ignore[return-value]

    def histogram(  # type: ignore[override]
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        return _NULL_METRIC  # type: ignore[return-value]

    def record_span(
        self,
        path: Sequence[str],
        wall_seconds: float,
        cpu_seconds: float = 0.0,
        count: int = 1,
    ) -> None:
        pass


_NULL_REGISTRY = NullRegistry()
_active: MetricsRegistry = _NULL_REGISTRY
_active_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-global active registry (a NullRegistry until enabled)."""
    return _active


def set_registry(registry: MetricsRegistry | None) -> MetricsRegistry:
    """Install ``registry`` as the active one; ``None`` restores the null backend."""
    global _active
    with _active_lock:
        _active = registry if registry is not None else _NULL_REGISTRY
        return _active


@contextmanager
def use_registry(registry: MetricsRegistry | None) -> Iterator[MetricsRegistry]:
    """Temporarily install ``registry`` (restores the previous one on exit)."""
    previous = _active
    installed = set_registry(registry)
    try:
        yield installed
    finally:
        set_registry(previous)


def enable_observability() -> MetricsRegistry:
    """Switch the global backend to a recording registry (idempotent)."""
    if _active.enabled:
        return _active
    return set_registry(MetricsRegistry())


def disable_observability() -> None:
    """Restore the no-op null backend."""
    set_registry(None)
