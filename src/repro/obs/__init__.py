"""``repro.obs`` — observability: tracing, metrics, events, logging.

The operational substrate of the reproduction pipeline, in four pieces:

* :mod:`repro.obs.trace` — span-based tracing into a JSONL file
  (``--trace FILE`` on the CLI; rendered by ``tools/trace_report.py``).
  Free when disabled; merges spans across fork workers into one trace.
* :mod:`repro.obs.metrics` — the process-wide registry of counters, gauges,
  and histograms behind ``GET /metrics``, the ``/stats`` ``metrics`` block,
  and ``repro-eba obs``.
* :mod:`repro.obs.bus` — the observer event bus (``progress``,
  ``sweep.resume``, ``pool.rebuild`` events), plus throttled
  :class:`~repro.obs.bus.ProgressReporter`.
* :mod:`repro.obs.logs` — the ``repro.*`` :mod:`logging` hierarchy and the
  logger-level one-shot warning dedup.

See ``docs/observability.md`` for the span taxonomy, the metric name table,
and the trace-file schema.
"""

from . import bus, logs, metrics, trace
from .bus import BUS, EventBus, ProgressReporter
from .logs import configure_logging, get_logger, warn_once
from .metrics import MetricsRegistry, REGISTRY, render_table
from .trace import Tracer

__all__ = [
    "BUS", "EventBus", "MetricsRegistry", "ProgressReporter", "REGISTRY",
    "Tracer", "bus", "configure_logging", "get_logger", "logs", "metrics",
    "render_table", "trace", "warn_once",
]
