"""Streaming time-series telemetry sampled on simulated-time windows.

A single end-of-run :class:`~repro.obs.metrics.MetricsRegistry` snapshot
erases exactly the behavior the open-loop engine exists to produce:
flash-crowd admission-drop ramps, fault-window recovery, cache warm-up.
This module keeps the transients.  A :class:`TimeSeriesRecorder` divides
simulated time into fixed windows (``interval_ms`` wide, window ``k``
covering ``[k*interval, (k+1)*interval)``) and accumulates three things
per window:

* **counters** — per-window deltas of cumulative sources (arrivals,
  admissions, drops, completions, errors, DB statements, executor
  index-vs-scan mix, JMS deliveries, cache hits/misses, kernel events);
* **gauges** — point-in-time readings at the window boundary (active
  sessions, JMS in-flight, the kernel's ready-deque length and its
  count of scheduled timers);
* **quantiles** — fixed-bucket HDR-style :class:`Histogram` per page
  class (plus an ``_all`` aggregate) over response times observed in
  the window, so p50/p95/p99 per window are streaming and deterministic
  — no reservoir, no randomness.

The sampler is an ordinary kernel process riding the sleep fast lane
(``yield interval_ms``), so a telemetry-on run schedules one extra timer
per window and nothing else: workload RNG draws and event
timestamps are untouched, and the tables/monitor output stays
byte-identical with telemetry on or off.  The sampler terminates itself
via the kernel's read-only :meth:`~repro.simnet.kernel.Environment.
pending` check.

State discipline mirrors the rest of ``repro.obs``: ``to_state()`` is a
sorted-key, JSON-safe dict; ``merge_state()`` folds another recorder's
windows in **by simulated-time key** (counters add, gauges max,
histogram counts add), which is what keeps ``--series-out`` artifacts
byte-identical for any ``--jobs N``.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Sequence, Tuple

from ..simnet.kernel import Environment
from .metrics import Histogram, system_counters

__all__ = [
    "HDR_BOUNDS",
    "TimeSeriesRecorder",
    "install_sampler",
]


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
#: resolution the SLO monitor needs.
HDR_BOUNDS: Tuple[float, ...] = _hdr_bounds()


class TimeSeriesRecorder:
    """Per-window counters, gauges and response-time quantiles.

    All mutation goes through :meth:`observe_response` (called by the
    workload generators on every successful page fetch) and the sampler
    process (window-boundary deltas and gauges).  Reading back goes
    through the state dict or the ``*_series`` helpers.
    """

    def __init__(
        self,
        interval_ms: float = 1000.0,
        bounds: Sequence[float] = HDR_BOUNDS,
    ):
        if interval_ms <= 0:
            raise ValueError(f"interval_ms must be positive, got {interval_ms!r}")
        self.interval_ms = float(interval_ms)
        self.bounds = tuple(bounds)
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("quantile bounds must be sorted")
        # window index -> {"counters": {}, "gauges": {}, "quantiles": {}}
        self._windows: Dict[int, dict] = {}
        # Fault-schedule overlay rows (see FaultSchedule.windows()); set
        # by install() so the artifact carries the schedule it ran under.
        self.fault_windows: Tuple[dict, ...] = ()

    # -- accumulation -------------------------------------------------------
    def _window(self, index: int) -> dict:
        window = self._windows.get(index)
        if window is None:
            window = self._windows[index] = {
                "counters": {},
                "gauges": {},
                "quantiles": {},
            }
        return window

    def observe_response(self, now: float, page: str, response_time: float) -> None:
        """Feed one successful page response into the current window."""
        window = self._window(int(now // self.interval_ms))
        quantiles = window["quantiles"]
        for key in ("_all", page):
            histogram = quantiles.get(key)
            if histogram is None:
                histogram = quantiles[key] = Histogram(self.bounds)
            histogram.observe(response_time)
        counters = window["counters"]
        counters["responses"] = counters.get("responses", 0) + 1

    def count(self, now: float, name: str, amount: float = 1) -> None:
        if amount:
            counters = self._window(int(now // self.interval_ms))["counters"]
            counters[name] = counters.get(name, 0) + amount

    def record_gauge(self, now: float, name: str, value: float) -> None:
        self._window(int(now // self.interval_ms))["gauges"][name] = value

    # -- wiring -------------------------------------------------------------
    def install(self, env: Environment, system, generator, faults=None) -> None:
        """Register the boundary sampler process on ``env``.

        Must run after the system and generator exist and before
        ``env.run()``.  When a non-empty fault schedule is given its
        labelled windows are stamped onto the recorder so the series
        artifact carries its own overlay.
        """
        if faults is not None and not faults.empty:
            self.fault_windows = faults.windows()
        install_sampler(env, self, system, generator)

    # -- reading back -------------------------------------------------------
    def indices(self) -> List[int]:
        return sorted(self._windows)

    def window_start(self, index: int) -> float:
        return index * self.interval_ms

    def counter_series(self, name: str) -> List[Tuple[float, float]]:
        """[(window start ms, per-window value)] for windows holding it."""
        return [
            (index * self.interval_ms, self._windows[index]["counters"][name])
            for index in sorted(self._windows)
            if name in self._windows[index]["counters"]
        ]

    def gauge_series(self, name: str) -> List[Tuple[float, float]]:
        return [
            (index * self.interval_ms, self._windows[index]["gauges"][name])
            for index in sorted(self._windows)
            if name in self._windows[index]["gauges"]
        ]

    def quantile_series(self, key: str, q: float) -> List[Tuple[float, float]]:
        """[(window start ms, percentile)] for ``key`` (a page or ``_all``)."""
        series = []
        for index in sorted(self._windows):
            histogram = self._windows[index]["quantiles"].get(key)
            if histogram is not None and histogram.count:
                series.append((index * self.interval_ms, histogram.percentile(q)))
        return series

    def window_quantiles(self, index: int) -> Dict[str, Histogram]:
        window = self._windows.get(index)
        return dict(window["quantiles"]) if window else {}

    # -- serialization ------------------------------------------------------
    def to_state(self) -> dict:
        """JSON-safe snapshot: sorted keys at every level.

        Empty sections are omitted per window to keep artifacts lean;
        ``fault_windows`` appears only when a schedule was installed, so
        fault-free series stay byte-identical with pre-fault tooling.
        """
        windows = {}
        for index in sorted(self._windows):
            window = self._windows[index]
            entry: dict = {}
            if window["counters"]:
                entry["counters"] = {
                    name: window["counters"][name]
                    for name in sorted(window["counters"])
                }
            if window["gauges"]:
                entry["gauges"] = {
                    name: window["gauges"][name] for name in sorted(window["gauges"])
                }
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

    @classmethod
    def from_state(cls, state: dict) -> "TimeSeriesRecorder":
        recorder = cls(
            interval_ms=state["interval_ms"], bounds=tuple(state["bounds"])
        )
        recorder.merge_state(state)
        return recorder

    def merge_state(self, state: dict) -> None:
        """Fold another recorder's windows in by simulated-time key.

        Counters add, gauges take the max (worst-seen, matching
        :meth:`MetricsRegistry.merge_state`), histogram counts/sums add.
        Interval and bounds must match — merging series sampled on
        different grids would silently misalign windows.
        """
        if float(state["interval_ms"]) != self.interval_ms:
            raise ValueError(
                f"interval mismatch in merge: {state['interval_ms']!r} "
                f"vs {self.interval_ms!r}"
            )
        if tuple(state["bounds"]) != self.bounds:
            raise ValueError("quantile bound mismatch in merge")
        for key, entry in state.get("windows", {}).items():
            window = self._window(int(key))
            counters = window["counters"]
            for name, value in entry.get("counters", {}).items():
                counters[name] = counters.get(name, 0) + value
            gauges = window["gauges"]
            for name, value in entry.get("gauges", {}).items():
                previous = gauges.get(name)
                gauges[name] = value if previous is None else max(previous, value)
            quantiles = window["quantiles"]
            for qkey, data in entry.get("quantiles", {}).items():
                histogram = quantiles.get(qkey)
                if histogram is None:
                    histogram = quantiles[qkey] = Histogram(self.bounds)
                counts = data["counts"]
                if len(counts) != len(histogram.counts):
                    raise ValueError(f"quantile {qkey!r} count-vector mismatch")
                for i, count in enumerate(counts):
                    histogram.counts[i] += count
                histogram.count += data["count"]
                histogram.total += data["sum"]
        incoming = state.get("fault_windows")
        if incoming:
            rows = {
                tuple(sorted(row.items()))
                for row in (*self.fault_windows, *incoming)
            }
            self.fault_windows = tuple(
                sorted(
                    (dict(row) for row in rows),
                    key=lambda r: (r["start"], r["end"], r["kind"], r["label"]),
                )
            )


# ---------------------------------------------------------------------------
# The boundary sampler
# ---------------------------------------------------------------------------


# The metrics of ``system_counters`` the sampler reads, in series order;
# a workload metric is stored under its ``_SERIES_NAMES`` series name,
# every other one under its own.  A metric the deployment lacks (no JMS,
# no data tier, a closed loop) is not sampled, so those series exist
# only where their source does.
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
    pay nothing per event; the only per-request telemetry cost is the
    generator's ``observe_response`` call.  The k-th wake (at simulated
    time ~``k * interval``) closes window ``k-1``; the tick counter, not
    float arithmetic on ``env.now``, keys the window so accumulated
    floating-point drift cannot skew the binning.
    """

    def __init__(self, recorder: TimeSeriesRecorder, system, generator):
        self.recorder = recorder
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
        index = self.ticks - 1
        recorder = self.recorder
        current = self._cumulative(env)
        last = self._last
        window = recorder._window(index)
        counters = window["counters"]
        for name, value in current.items():
            delta = value - last.get(name, 0)
            if delta:
                counters[name] = counters.get(name, 0) + delta
        self._last = current

        gauges = window["gauges"]
        gauges["sessions.active"] = self.generator.active
        jms = self.system.main.jms
        if jms is not None:
            gauges["jms.in_flight"] = jms.in_flight
        kernel = env.stats()
        gauges["kernel.ready"] = kernel["ready"]
        gauges["kernel.scheduled"] = kernel["scheduled"]

    def run(self, env: Environment) -> Generator[float, None, None]:
        interval = self.recorder.interval_ms
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


def install_sampler(
    env: Environment, recorder: TimeSeriesRecorder, system, generator
) -> None:
    """Register the window-boundary sampler as a kernel process."""
    sampler = _Sampler(recorder, system, generator)
    env.process(sampler.run(env), name="obs-sampler")
