"""repro.obs — instrumentation, metrics and profiling for the machine models.

A lightweight tracing + metrics layer threaded through every backend
(CUDA, SIMD, AP, MIMD, vector) and the reference oracle:

* :func:`span` — context-manager spans recording *wall* time (what the
  simulator spent) and *modelled* time (architecture seconds the cost
  model attributed), nested into a tree;
* :func:`event` — instant events (deadline misses, ...);
* :class:`Collector` — the process-global sink of spans and events,
  activated with :func:`collecting`; when none is active every helper
  is a no-op whose cost is one global read (the benchmarks run in this
  mode);
* :mod:`repro.obs.metrics` — the labeled **metrics registry**
  (counters, gauges, exact-bucket histograms) behind the deadline SLO
  monitor, with OpenMetrics export (``atm-repro metrics``,
  ``report --metrics-out``) and the same zero-overhead no-op contract;
* :mod:`repro.obs.aggregate` — per-(platform, category, span) statistics
  folded from raw traces, mergeable across pool shards;
* :mod:`repro.obs.dashboard` — the self-contained single-file HTML
  dashboard (``atm-repro dashboard``);
* :mod:`repro.obs.export` — Chrome-trace-format and JSON-lines dumps;
* :mod:`repro.obs.summary` — span-tree rendering, modelled-time
  coverage and the registry's counter table.

Surface commands: ``atm-repro profile <experiment>``, ``atm-repro
metrics``, ``atm-repro dashboard`` and ``atm-repro report --trace
out.json --metrics-out out.prom``.  Full guide: ``docs/observability.md``.
"""

from .aggregate import SpanAggregate, SpanStats, aggregate_spans
from .collector import (
    NULL_SPAN,
    Collector,
    Span,
    SpanRecord,
    activate,
    collecting,
    deactivate,
    event,
    get_collector,
    is_active,
    span,
)
from .dashboard import render_dashboard, write_dashboard
from .export import chrome_trace, json_lines, write_chrome_trace, write_json_lines
from .metrics import (
    DECLARATIONS,
    Counter,
    Gauge,
    Histogram,
    MetricDecl,
    MetricsRegistry,
    activate_metrics,
    deactivate_metrics,
    get_registry,
    metric_inc,
    metric_observe,
    metric_set,
    metrics_active,
    parse_openmetrics,
    recording,
    to_openmetrics,
)
from .summary import (
    MANDATORY_TASK_SPANS,
    modelled_coverage,
    render_counters,
    render_span_tree,
)

__all__ = [
    "Collector",
    "Span",
    "SpanRecord",
    "NULL_SPAN",
    "MANDATORY_TASK_SPANS",
    "activate",
    "deactivate",
    "get_collector",
    "is_active",
    "collecting",
    "span",
    "event",
    "chrome_trace",
    "json_lines",
    "write_chrome_trace",
    "write_json_lines",
    "render_span_tree",
    "render_counters",
    "modelled_coverage",
    # metrics registry
    "DECLARATIONS",
    "MetricDecl",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "activate_metrics",
    "deactivate_metrics",
    "get_registry",
    "metrics_active",
    "recording",
    "metric_inc",
    "metric_set",
    "metric_observe",
    "to_openmetrics",
    "parse_openmetrics",
    # aggregation + dashboard
    "SpanAggregate",
    "SpanStats",
    "aggregate_spans",
    "render_dashboard",
    "write_dashboard",
]
