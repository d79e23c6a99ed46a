"""Fleet-wide telemetry: metrics registry, tracing, flight recorder, logging.

Zero-dependency observability for the serving + learning stack.  Four parts:

- :mod:`~repro.obs.registry` — a lock-cheap metrics registry (counters,
  gauges, fixed-bucket histograms) whose function-backed series read each
  owner's ``STATS`` table at snapshot time (the same table a ``stats`` reply
  renders), as JSON or Prometheus text.
- :mod:`~repro.obs.tracing` — per-decision trace/span IDs minted at the
  client and carried through router → shard → broker → model stages, stored
  in bounded per-process :class:`SpanStore` rings.
- :mod:`~repro.obs.flight` — a per-shard :class:`FlightRecorder` ring of
  recent operational events, auto-dumped on SLO trips, rollbacks and shard
  death.
- :mod:`~repro.obs.logging` — structured JSON logging on stdlib
  ``logging``; dark until :func:`configure_logging`.

Everything here is off the decision path by construction: untraced requests
never allocate a span, function-backed series read existing counters only
when scraped, and loggers guard on ``isEnabledFor``.  See
``docs/OBSERVABILITY.md``.
"""

from .flight import FLIGHT_DIR_ENV, FlightRecorder
from .logging import JsonLogFormatter, configure_logging, get_logger, log_event
from .registry import (
    DEFAULT_LATENCY_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_prometheus,
    sample_value,
    stat_values,
    summarize_snapshot,
)
from .tracing import Span, SpanStore, new_span_id, new_trace_id

__all__ = [
    "FLIGHT_DIR_ENV",
    "FlightRecorder",
    "JsonLogFormatter",
    "configure_logging",
    "get_logger",
    "log_event",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "render_prometheus",
    "sample_value",
    "stat_values",
    "summarize_snapshot",
    "Span",
    "SpanStore",
    "new_span_id",
    "new_trace_id",
]
