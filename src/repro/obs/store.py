"""The per-cell measurement store: every served visit is observed once.

The runner creates one :class:`MeasurementStore` per cell and the
session driver calls :meth:`MeasurementStore.observe` exactly once per
served visit.  The store holds three sections, and
:meth:`MeasurementStore.to_state` emits them as one picklable, JSON-safe
dict with sorted keys at every level:

``whole_run``
    What Tables 6/7 and Figures 7/8 read: an exact count and running sum
    of response times per (group, page) and per group, added in observe
    order, with visits served before the warm-up discarded.  Groups are
    labels such as ``"remote-browser"``: the client group's locality
    joined with the session type.  :class:`WholeRun` reads the section
    back.
``metrics``
    The :class:`~repro.obs.metrics.MetricsRegistry`: the JMS live
    histograms, observed as messages flow, and every counter of the
    deployment, registered by
    :func:`~repro.obs.metrics.collect_system_metrics` at the end of the
    run.
``series``
    ``None`` unless the cell has a window interval (``--obs-interval``).
    Then simulated time is cut into ``interval_ms``-wide windows (window
    ``k`` covers ``[k*interval, (k+1)*interval)``), and each window keeps:

    * **quantiles** — a fixed-bucket HDR-style
      :class:`~repro.obs.metrics.Histogram` per page (plus an ``_all``
      aggregate) over the response times served in it, warm-up
      included, so per-window p50/p95/p99 are streaming and
      deterministic;
    * **counters** — per-window deltas of cumulative sources (requests,
      errors, session arrivals and drops, DB statements, executor scan
      mix, JMS deliveries, cache hits/misses, kernel events), plus the
      ``responses`` count;
    * **gauges** — readings at the window boundary (active sessions,
      JMS in-flight, the kernel's ready-deque length and its scheduled
      timers).

    The counters and gauges come from a sampler: an ordinary kernel
    process that sleeps one interval at a time and reads the
    deployment's cumulative counters.  It adds one timer per window and
    draws nothing, so the simulation and the whole-run section are the
    same with windows on or off.

A cell's state is exported under the cell's own label (``--jobs N``
ships each cell's state back whole), so nothing merges states.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Generator, List, NamedTuple, Optional, Sequence, Tuple

from ..simnet.kernel import Environment
from .metrics import Histogram, MetricsRegistry, system_counters

__all__ = ["HDR_BOUNDS", "Cell", "MeasurementStore", "WholeRun"]


def _hdr_bounds(
    lo: float = 1.0, hi: float = 60_000.0, per_decade: int = 12
) -> Tuple[float, ...]:
    """Geometric bucket grid: ~±10% relative error over [lo, hi] ms."""
    bounds: List[float] = []
    ratio = 10.0 ** (1.0 / per_decade)
    value = lo
    while value < hi:
        bounds.append(round(value, 6))
        value *= ratio
    bounds.append(hi)
    return tuple(bounds)


#: Default response-time grid: 12 buckets per decade from 1 ms to 60 s —
#: wide enough that the connect-timeout tail (3 s per failed attempt)
#: lands in finite buckets, fine enough that windowed p95/p99 carry the
#: resolution the SLO evaluator needs.
HDR_BOUNDS: Tuple[float, ...] = _hdr_bounds()


def _new_cell() -> list:
    return [0, 0.0]


class MeasurementStore:
    """Whole-run response cells, the metrics registry and, optionally,
    the per-window series of one cell."""

    def __init__(
        self,
        warmup: float = 0.0,
        interval_ms: Optional[float] = None,
        bounds: Sequence[float] = HDR_BOUNDS,
    ):
        if interval_ms is not None and not 0 < interval_ms < math.inf:  # NaN fails too
            raise ValueError(
                f"interval_ms must be positive and finite, got {interval_ms!r}"
            )
        self.warmup = warmup
        self.interval_ms = None if interval_ms is None else float(interval_ms)
        self.bounds = tuple(bounds)
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("quantile bounds must be sorted")
        self.registry = MetricsRegistry()
        self.discarded_warmup = 0
        # [count, total] per (group, page) and per group.  A defaultdict:
        # its hit path is one C-level lookup, no call, on every visit.
        self._pages: Dict[Tuple[str, str], list] = defaultdict(_new_cell)
        self._groups: Dict[str, list] = defaultdict(_new_cell)
        # window index -> {"counters": {}, "gauges": {}, "quantiles": {}}
        self._windows: Dict[int, dict] = {}
        # Fault-schedule overlay rows (see FaultSchedule.windows()), set
        # by install_sampler so the series carries the schedule it ran under.
        self.fault_windows: Tuple[dict, ...] = ()

    # -- accumulation -------------------------------------------------------
    def observe(self, now: float, group: str, page: str, response_time: float) -> None:
        """Record one served visit that took ``response_time`` ms."""
        if self.interval_ms is not None:
            window = self._window(int(now // self.interval_ms))
            quantiles = window["quantiles"]
            for key in ("_all", page):
                histogram = quantiles.get(key)
                if histogram is None:
                    histogram = quantiles[key] = Histogram(self.bounds)
                histogram.observe(response_time)
            counters = window["counters"]
            counters["responses"] = counters.get("responses", 0) + 1
        if now < self.warmup:
            self.discarded_warmup += 1
            return
        cell = self._pages[group, page]
        cell[0] += 1
        cell[1] += response_time
        cell = self._groups[group]
        cell[0] += 1
        cell[1] += response_time

    def _window(self, index: int) -> dict:
        window = self._windows.get(index)
        if window is None:
            window = self._windows[index] = {
                "counters": {},
                "gauges": {},
                "quantiles": {},
            }
        return window

    # -- wiring -------------------------------------------------------------
    def install_sampler(self, env: Environment, system, generator, faults=None) -> None:
        """Register the window-boundary sampler process on ``env``.

        Needs a window interval.  Must run after the system and generator
        exist and before ``env.run()``.  A non-empty fault schedule's labelled windows are
        stamped onto the series so it carries its own overlay.
        """
        if faults is not None and not faults.empty:
            self.fault_windows = faults.windows()
        env.process(_Sampler(self, system, generator).run(env), name="obs-sampler")

    # -- serialization ------------------------------------------------------
    def to_state(self) -> dict:
        """The three sections as one JSON-safe dict, keys sorted."""
        return {
            "metrics": self.registry.to_state(),
            "series": None if self.interval_ms is None else self._series_state(),
            "whole_run": {
                "discarded_warmup": self.discarded_warmup,
                "session_stats": [
                    [group, {"count": count, "total": total}]
                    for group, (count, total) in sorted(self._groups.items())
                ],
                "stats": [
                    [group, page, {"count": count, "total": total}]
                    for (group, page), (count, total) in sorted(self._pages.items())
                ],
            },
        }

    def _series_state(self) -> dict:
        """Empty sections are omitted per window to keep artifacts lean;
        ``fault_windows`` appears only when a schedule was installed."""
        windows = {}
        for index in sorted(self._windows):
            window = self._windows[index]
            entry: dict = {}
            for section in ("counters", "gauges"):
                if window[section]:
                    entry[section] = dict(sorted(window[section].items()))
            if window["quantiles"]:
                entry["quantiles"] = {
                    key: {
                        "counts": list(histogram.counts),
                        "count": histogram.count,
                        "sum": histogram.total,
                    }
                    for key, histogram in sorted(window["quantiles"].items())
                }
            windows[str(index)] = entry
        state = {
            "interval_ms": self.interval_ms,
            "bounds": list(self.bounds),
            "windows": windows,
        }
        if self.fault_windows:
            state["fault_windows"] = [dict(row) for row in self.fault_windows]
        return state


class Cell(NamedTuple):
    """Count and sum of the response times of one whole-run cell."""

    count: int = 0
    total: float = 0.0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class WholeRun:
    """Reads a store's ``whole_run`` section: the tables' and figures' input."""

    def __init__(self, state: dict):
        self.state = state
        self.discarded_warmup = state["discarded_warmup"]
        self._pages = {(group, page): Cell(**cell) for group, page, cell in state["stats"]}
        self._groups = {group: Cell(**cell) for group, cell in state["session_stats"]}

    def to_state(self) -> dict:
        return self.state

    def groups(self) -> List[str]:
        return sorted(self._groups)

    def pages(self, group: str) -> List[str]:
        return sorted(page for g, page in self._pages if g == group)

    def page_stats(self, group: str, page: str) -> Cell:
        return self._pages.get((group, page), Cell())

    def mean(self, group: str, page: str) -> float:
        return self.page_stats(group, page).mean

    def session_mean(self, group: str) -> float:
        """Mean response time over every visit ``group`` was served."""
        return self._groups.get(group, Cell()).mean

    def table(self) -> Dict[str, Dict[str, float]]:
        """group -> {page -> mean response time}."""
        table: Dict[str, Dict[str, float]] = {}
        for (group, page), cell in self._pages.items():
            table.setdefault(group, {})[page] = cell.mean
        return table


# ---------------------------------------------------------------------------
# The boundary sampler
# ---------------------------------------------------------------------------


# The metrics of ``system_counters`` the sampler reads, in series order;
# a workload metric is stored under its ``_SERIES_NAMES`` series name,
# every other one under its own.  A metric the deployment lacks (no JMS,
# no data tier) is not sampled, so those series exist only where their
# source does.
_SERIES_COUNTERS = (
    "db.statements",
    "db.executor.index_scans",
    "db.executor.full_scans",
    "db.executor.range_scans",
    "jms.deliveries",
    "cluster.elections_won",
    "cluster.leader_failovers",
    "cluster.quorum_commits",
    "cluster.cross_shard_txns",
    "cluster.scatter_gather_queries",
    "cluster.stale_reads_served",
    "cluster.catchup_entries",
    "workload.requests",
    "workload.errors",
    "workload.failovers",
    "workload.think_time_ms",
    "workload.sessions_arrived",
    "workload.sessions_admitted",
    "workload.sessions_dropped",
    "workload.sessions_completed",
)
_SERIES_NAMES = {
    "workload.requests": "requests.sent",
    "workload.errors": "requests.errors",
    "workload.failovers": "requests.failovers",
    "workload.think_time_ms": "think_ms",
    "workload.sessions_arrived": "sessions.arrivals",
    "workload.sessions_admitted": "sessions.admitted",
    "workload.sessions_dropped": "sessions.dropped",
    "workload.sessions_completed": "sessions.completed",
}

# Series-name prefix of each edge-state mechanism's hits and misses,
# summed over its members, by the mechanism's metric-name prefix;
# methodcache exists only at level 6.
_SERIES_CACHE_PREFIX = {
    "querycache": "cache.query_",
    "replica": "replica.",
    "methodcache": "methodcache.",
}


class _Sampler:
    """Reads cumulative sources at window boundaries and stores deltas.

    Pull-based: components keep their existing cumulative counters and
    pay nothing per event.  The k-th wake (at simulated time
    ~``k * interval``) closes window ``k-1``; the tick counter, not float
    arithmetic on ``env.now``, keys the window so accumulated
    floating-point drift cannot skew the binning.
    """

    def __init__(self, store: MeasurementStore, system, generator):
        self.store = store
        self.system = system
        self.generator = generator
        self.ticks = 0
        self._last: Dict[str, float] = {}

    # -- cumulative sources -------------------------------------------------
    def _cumulative(self, env: Environment) -> Dict[str, float]:
        system = self.system
        walk = system_counters(system, self.generator)
        current: Dict[str, float] = {"kernel.events": env._sequence}
        for metric in _SERIES_COUNTERS:
            if metric in walk:
                current[_SERIES_NAMES.get(metric, metric)] = walk[metric]
        for name, value in walk.items():
            mechanism, _, path = name.partition(".")
            series = _SERIES_CACHE_PREFIX.get(mechanism)
            counter = path.rpartition(".")[2]
            if series is not None and counter in ("hits", "misses"):
                current[series + counter] = current.get(series + counter, 0) + value
        if system.cluster is not None:
            # A reading, not a count: read raw, not as the rounded gauge.
            current["cluster.staleness_ms"] = system.cluster.stats.staleness_ms
        return current

    def _sample(self, env: Environment) -> None:
        self.ticks += 1
        current = self._cumulative(env)
        last = self._last
        window = self.store._window(self.ticks - 1)
        counters = window["counters"]
        for name, value in current.items():
            delta = value - last.get(name, 0)
            if delta:
                counters[name] = counters.get(name, 0) + delta
        self._last = current

        gauges = window["gauges"]
        gauges["sessions.active"] = self.generator.active
        gauges["jms.in_flight"] = self.system.jms.in_flight
        kernel = env.stats()
        gauges["kernel.ready"] = kernel["ready"]
        gauges["kernel.scheduled"] = kernel["scheduled"]

    def run(self, env: Environment) -> Generator[float, None, None]:
        interval = self.store.interval_ms
        # Baseline before the run: replica/query-cache warming happens at
        # construction time, and its counters must not pollute window 0.
        self._last = self._cumulative(env)
        while True:
            yield interval
            self._sample(env)
            if not env.pending():
                # Nothing but this sampler left alive: final deltas are
                # taken, so let the run drain.
                return
