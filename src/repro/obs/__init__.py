"""Observability: span-based request tracing and one measurement store.

The paper's argument is an *attribution* argument — which design pattern
makes which page pay how many wide-area round trips — so the simulator
needs first-class causal instrumentation, not just a flat call log:

* :mod:`repro.obs.spans` — every client page request opens a root span;
  :class:`~repro.middleware.context.InvocationContext` threads parent
  span ids through RMI stubs, JDBC calls, JMS publishes/MDB deliveries
  and container invocations, so one request reconstructs as one tree.
* :mod:`repro.obs.store` — the per-cell measurement store the session
  driver feeds once per served visit: the whole-run response cells
  behind Tables 6/7 and Figures 7/8, the metrics registry, the
  per-window series (a kernel sampler process + windowed HDR-style
  quantiles) and the span rows.
* :mod:`repro.obs.metrics` — the registry of counters, gauges and
  histograms, snapshot in canonical order (byte-identical output for
  any ``--jobs N``).
* :mod:`repro.obs.slo` — declarative objectives evaluated per window
  with burn rates and fault-overlay recovery times (``--slo``).
* :mod:`repro.obs.flame` — span trees folded into collapsed-stack
  flamegraphs and per-layer latency attribution.
* :mod:`repro.obs.export` — the artifact bundle ``--out DIR`` writes:
  one table of file names, each with its writer and its validator
  (Chrome trace-event JSON loadable in Perfetto / ``chrome://tracing``,
  metrics, series, flamegraphs, attribution, SLO and availability).
* :mod:`repro.obs.validate` — ``python -m repro.obs.validate DIR`` checks
  every file of a bundle by name (used by CI on the uploaded bundles).
"""

from .. import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "SpanRecorder": "spans",
    "MetricsRegistry": "metrics",
    "collect_system_metrics": "metrics",
    "collect_cache_stats": "metrics",
    "HDR_BOUNDS": "store",
    "MeasurementStore": "store",
    "WholeRun": "store",
    "evaluate_slo": "slo",
    "load_slo": "slo",
    "parse_objectives": "slo",
    "render_slo_report": "slo",
    "collapse_spans": "flame",
    "layer_self_times": "flame",
    "merge_folded": "flame",
    "render_folded": "flame",
})
