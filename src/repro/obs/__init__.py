"""Unified observability layer: tracing, metrics, exporters, logging.

This package is the operational substrate the service-oriented layers
(engine, service, CLI) report through:

``repro.obs.tracing``
    Span-based tracing with explicit span contexts (trace id, span id,
    parent id).  Spans ride through every execution-backend trampoline
    the same way the per-phase wall-clock collectors do, so spans
    emitted inside ``threads``/``processes`` workers
    are shipped home with their task result and re-parented under the
    submitting task's span.
``repro.obs.metrics``
    A process-wide metrics registry — ``Counter``/``Gauge``/``Histogram``
    primitives with labelled series, mergeable cross-process snapshots,
    and Prometheus text-format rendering for the service's ``/metrics``
    endpoint.
``repro.obs.export``
    Trace exporters (JSONL and Chrome trace-event JSON, loadable in
    Perfetto / ``chrome://tracing``) plus the ``python -m repro trace``
    summarizer (top spans, per-name rollup, critical path).
``repro.obs.logs``
    The structured ``repro.*`` logging spine: ``configure_logging``
    (``--log-level`` / ``REPRO_LOG_LEVEL``, optional JSON formatter) and
    ``get_logger``.

Layering: stdlib-only (plus numpy nowhere), importable from every other
``repro`` package without cycles.  The hard invariant threaded through
all of it: **tracing off means zero overhead on hot paths** — without an
active collector, ``span()`` costs one thread-local attribute read, and
all 17 golden experiments are bit-identical with tracing on or off.
"""

from repro.obs.logs import configure_logging, get_logger
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    parse_prometheus,
)
from repro.obs.tracing import Tracer, collect_spans, current_span_id, is_tracing, span

__all__ = [
    "Tracer",
    "span",
    "collect_spans",
    "current_span_id",
    "is_tracing",
    "MetricsRegistry",
    "REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "parse_prometheus",
    "configure_logging",
    "get_logger",
]
