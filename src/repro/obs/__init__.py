"""repro.obs — zero-dependency observability: metrics, spans, exporters.

The subsystem has four small parts:

- :mod:`repro.obs.registry` — thread-safe :class:`MetricsRegistry` of
  counters/gauges/histograms plus the aggregated span tree, with a
  process-global active registry defaulting to a no-op
  :class:`NullRegistry` (enable with :func:`enable_observability` or
  scope with :func:`use_registry`).
- :mod:`repro.obs.spans` — the nestable :func:`span` context-manager
  timer (always measures wall time; records only when enabled), the
  :class:`Stopwatch` for budget loops, and :class:`SpanDelta`, the trace
  of one section of work.
- :mod:`repro.obs.exporters` — snapshot renderers (JSON, Prometheus
  text, human table) behind ``--metrics-out`` and ``repro obs``.
- :mod:`repro.obs.reporting` — the :class:`Reportable` result protocol
  every ``summary()`` speaks.
"""

from .exporters import (
    EXPORTER_FORMATS,
    render_json,
    render_prometheus,
    render_table,
    write_snapshot,
)
from .registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    disable_observability,
    enable_observability,
    get_registry,
    set_registry,
    use_registry,
)
from .reporting import Reportable, ReportableMixin, json_default
from .spans import Span, SpanDelta, Stopwatch, flatten_spans, span, span_tree_delta

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
    "Span",
    "span",
    "Stopwatch",
    "SpanDelta",
    "flatten_spans",
    "span_tree_delta",
    "render_json",
    "render_prometheus",
    "render_table",
    "write_snapshot",
    "EXPORTER_FORMATS",
    "Reportable",
    "ReportableMixin",
    "json_default",
]
