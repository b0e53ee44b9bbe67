"""``repro.obs`` — the unified telemetry layer.

One dependency-free subsystem shared by every layer of the
reproduction (see ``docs/observability.md``):

* **Metrics** — a thread-safe registry of labelled counters, gauges and
  bucket histograms (:class:`MetricsRegistry`), with a process-wide
  default (:func:`get_registry`) and a Prometheus text renderer
  (:func:`render_prometheus`).
* **Tracing** — typed span/instant events in a bounded ring buffer
  (:class:`Tracer`), exported as Chrome trace-event JSON (open in
  ``chrome://tracing`` / Perfetto) or JSON lines.  Off by default; the
  installed :class:`NullTracer` makes instrumentation a single boolean
  check (:func:`enable_tracing` turns recording on).
* **Profiling hooks** — :func:`profiled` spans wired into the
  simulator, engine and service hot paths.
* **Logging** — :func:`logging_setup` configures the ``repro`` logger
  hierarchy with an optional JSON formatter.
"""

from repro.obs.context import (
    TraceContext,
    assert_span_containment,
    new_span_id,
    new_trace_id,
    orphan_spans,
    span_index,
    span_tree,
    trace_ids_in,
)
from repro.obs.dashboard import render_obs_dashboard, render_top
from repro.obs.logsetup import JsonLogFormatter, logging_setup
from repro.obs.profiling import profiled
from repro.obs.prometheus import parse_prometheus, render_prometheus
from repro.obs.registry import (
    OVERFLOW_COUNTER,
    OVERFLOW_LABEL_VALUE,
    Counter,
    Gauge,
    Histogram,
    HistogramFamily,
    HistogramSnapshot,
    MetricsRegistry,
    get_registry,
    latency_bounds,
    set_registry,
)
from repro.obs.slo import (
    SLO,
    Alert,
    BurnRatePolicy,
    FlightRecorder,
    SLOMonitor,
)
from repro.obs.timeseries import (
    MetricsScraper,
    Sample,
    histogram_delta,
    percentile_of,
)
from repro.obs.tracer import (
    TRACK_SIM,
    TRACK_WALL,
    NullTracer,
    TraceEvent,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    set_tracer,
    validate_chrome_trace,
)

__all__ = [
    "Alert",
    "BurnRatePolicy",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "HistogramFamily",
    "HistogramSnapshot",
    "JsonLogFormatter",
    "MetricsRegistry",
    "MetricsScraper",
    "NullTracer",
    "OVERFLOW_COUNTER",
    "OVERFLOW_LABEL_VALUE",
    "SLO",
    "SLOMonitor",
    "Sample",
    "TraceContext",
    "TraceEvent",
    "Tracer",
    "TRACK_SIM",
    "TRACK_WALL",
    "assert_span_containment",
    "disable_tracing",
    "enable_tracing",
    "get_registry",
    "get_tracer",
    "histogram_delta",
    "latency_bounds",
    "logging_setup",
    "new_span_id",
    "new_trace_id",
    "orphan_spans",
    "parse_prometheus",
    "percentile_of",
    "profiled",
    "render_obs_dashboard",
    "render_prometheus",
    "render_top",
    "set_registry",
    "set_tracer",
    "span_index",
    "span_tree",
    "trace_ids_in",
    "validate_chrome_trace",
]
