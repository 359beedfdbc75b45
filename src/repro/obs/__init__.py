"""Unified observability: tracing, metrics and schedule rendering.

``repro.obs`` is the cross-cutting instrumentation layer for the solver:

* :mod:`repro.obs.tracer` — span/event tracer recording both wall-clock
  (``time.perf_counter``) and **simulated virtual-time** activity.  The
  module-level default is a zero-cost no-op (:data:`NULL_TRACER`);
  install a real :class:`Tracer` with :func:`use_tracer` /
  :func:`set_tracer` to record.
* :mod:`repro.obs.metrics` — counters/gauges/histograms with labeled
  series, same no-op-by-default pattern (:data:`NULL_METRICS`).
* :mod:`repro.obs.timing` — the :class:`Timer` / :class:`TimingRegistry`
  phase timers, bridged into the active tracer.
* :mod:`repro.obs.ledger` — who is computing now and the compute seconds
  a shared cache bills to a rank's virtual clock.
* :mod:`repro.obs.export` — native trace files, Chrome ``trace_event``
  JSON (Perfetto) and CSV exporters.
* :mod:`repro.obs.gantt` — ASCII/SVG per-rank Gantt rendering of a
  traced PFASST schedule (the paper's Fig. 6).
* :mod:`repro.obs.cli` — the ``repro-trace`` command-line tool
  (``summarize`` / ``export`` / ``gantt`` / ``diff``).

Typical traced run::

    from repro.obs import Tracer, MetricsRegistry, use_tracer, use_metrics
    from repro.obs import save_trace

    tracer, metrics = Tracer(), MetricsRegistry()
    with use_tracer(tracer), use_metrics(metrics):
        result = run_pfasst(cfg, specs, u0, p_time=4, tracer=tracer)
    save_trace(tracer, "trace.json", metrics=metrics)

See ``docs/observability.md`` for the full guide.
"""

from repro.obs.export import (
    TraceData,
    chrome_trace,
    export_chrome_trace,
    load_trace,
    save_trace,
    spans_to_csv,
)
from repro.obs.gantt import render_ascii, render_svg, span_family
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
    NullMetrics,
    get_metrics,
    set_metrics,
    use_metrics,
)
from repro.obs.timing import Timer, TimingRegistry, timed
from repro.obs.tracer import (
    Instant,
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)

__all__ = [
    # tracer
    "Tracer", "NullTracer", "NULL_TRACER", "Span", "Instant",
    "get_tracer", "set_tracer", "use_tracer",
    # metrics
    "MetricsRegistry", "NullMetrics", "NULL_METRICS",
    "Counter", "Gauge", "Histogram",
    "get_metrics", "set_metrics", "use_metrics",
    # timing
    "Timer", "TimingRegistry", "timed",
    # export / rendering
    "TraceData", "save_trace", "load_trace",
    "chrome_trace", "export_chrome_trace", "spans_to_csv",
    "render_ascii", "render_svg", "span_family",
]
