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
  behind Tables 6/7 and Figures 7/8, the metrics registry, and the
  per-window series (a kernel sampler process + windowed HDR-style
  quantiles).
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

from .flame import collapse_spans, layer_self_times, merge_folded, render_folded
from .metrics import MetricsRegistry, collect_cache_stats, collect_system_metrics
from .slo import evaluate_slo, load_slo, parse_objectives, render_slo_report
from .spans import Span, SpanRecorder, SpanTree, client_path_wan_calls
from .store import HDR_BOUNDS, MeasurementStore, WholeRun

__all__ = [
    "Span",
    "SpanRecorder",
    "SpanTree",
    "client_path_wan_calls",
    "MetricsRegistry",
    "collect_system_metrics",
    "collect_cache_stats",
    "HDR_BOUNDS",
    "MeasurementStore",
    "WholeRun",
    "evaluate_slo",
    "load_slo",
    "parse_objectives",
    "render_slo_report",
    "collapse_spans",
    "layer_self_times",
    "merge_folded",
    "render_folded",
]
