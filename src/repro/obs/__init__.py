"""Zero-dependency observability: tracing, metrics, timing.

Three pieces, threaded through every layer of the repro:

- :mod:`repro.obs.trace` — span trees for per-query structure
  (``query --trace``), with a no-op default so disabled tracing costs
  one attribute lookup on the hot path.
- :mod:`repro.obs.metrics` — a process-wide registry of counters,
  gauges and log-bucketed latency histograms with Prometheus text
  exposition; ``QueryService.stats_snapshot()`` merges its
  ``snapshot()`` into the service's stats dict.
- :mod:`repro.obs.timing` — ``Timer``, the stage vocabulary
  ``STAGES`` and the ``StageRecorder`` that times and names each
  engine stage once.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from repro.obs.timing import STAGES, StageRecorder, Timer
from repro.obs.trace import (
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    current_span,
    render_trace,
    use_span,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "NULL_TRACER",
    "NullTracer",
    "STAGES",
    "Span",
    "StageRecorder",
    "Timer",
    "Tracer",
    "current_span",
    "get_registry",
    "render_trace",
    "use_span",
]
