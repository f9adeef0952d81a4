"""A metrics registry of counters, gauges and histograms.

Three instrument types — :class:`Counter`, :class:`Gauge`,
:class:`Histogram` — registered by name in a :class:`MetricsRegistry`,
whose :meth:`~MetricsRegistry.to_state` emits instruments in sorted name
order, so a snapshot is byte-identical however the cell was run
(``--jobs 1`` or ``--jobs N``).  Each cell's
:class:`~repro.obs.store.MeasurementStore` holds one registry.

Two acquisition styles coexist:

* **live instruments** — JMS observes topic depth and delivery lag into
  the registry as messages flow;
* **end-of-run collection** — :func:`collect_system_metrics` walks a
  finished :class:`~repro.core.distribution.DeployedSystem` and registers
  every counter the subsystems already keep (query-cache hits, replica
  hit/miss, propagator pushes, executor scan counts).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "collect_system_metrics",
    "collect_cache_stats",
    "system_counters",
]

Number = Union[int, float]

# Log-ish default bounds in milliseconds; the last bucket is open-ended.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0,
)


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("value",)

    def __init__(self, value: Number = 0):
        self.value = value

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        self.value += amount


class Gauge:
    """A point-in-time value (utilization, cache size, ...)."""

    __slots__ = ("value",)

    def __init__(self, value: Number = 0):
        self.value = value

    def set(self, value: Number) -> None:
        self.value = value


class Histogram:
    """Fixed-bound bucketed distribution (counts + sum)."""

    __slots__ = ("bounds", "counts", "total", "count")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS):
        self.bounds = tuple(bounds)
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bounds must be sorted")
        # counts[i] observes values <= bounds[i]; the final slot is +inf.
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: Number) -> None:
        # bisect_left returns the first i with bounds[i] >= value, which
        # is exactly the "value <= bound" bucket the linear scan found;
        # with the wide HDR-style grids the windowed quantiles use, the
        # O(log n) lookup keeps the per-request cost flat.
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Bucket-interpolated quantile; ``q`` in [0, 1].

        Linearly interpolates inside the bucket holding the q-th
        observation (bucket ``i`` spans ``(bounds[i-1], bounds[i]]``;
        the first starts at 0.0).  The open-ended overflow bucket has no
        upper edge, so quantiles landing there clamp to the last finite
        bound — callers wanting tail fidelity pick bounds wide enough
        that the overflow stays empty.
        """
        if not self.count:
            return 0.0
        rank = min(max(q, 0.0), 1.0) * self.count
        cumulative = 0.0
        lower = 0.0
        for i, count in enumerate(self.counts):
            upper = self.bounds[i] if i < len(self.bounds) else lower
            if count and cumulative + count >= rank:
                if i >= len(self.bounds):
                    return lower
                fraction = (rank - cumulative) / count
                return lower + (upper - lower) * fraction
            cumulative += count
            lower = upper
        return lower

    def cdf(self, value: float) -> float:
        """Interpolated fraction of observations at or below ``value``.

        Overflow-bucket mass (beyond the last finite bound) counts as
        *above* any finite value — the conservative reading for SLO
        bad-fraction math.  An empty histogram reports 1.0 (vacuously
        compliant).
        """
        if not self.count:
            return 1.0
        cumulative = 0.0
        lower = 0.0
        for i, bound in enumerate(self.bounds):
            count = self.counts[i]
            if value < bound:
                if count:
                    width = bound - lower
                    part = (value - lower) / width if width > 0.0 else 1.0
                    if part > 0.0:
                        cumulative += count * min(1.0, part)
                return cumulative / self.count
            cumulative += count
            lower = bound
        return cumulative / self.count


class MetricsRegistry:
    """Named instruments, snapshot in canonical order."""

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- registration ------------------------------------------------------
    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            self._check_free(name, self._counters)
            instrument = self._counters[name] = Counter()
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            self._check_free(name, self._gauges)
            instrument = self._gauges[name] = Gauge()
        return instrument

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            self._check_free(name, self._histograms)
            instrument = self._histograms[name] = Histogram(bounds)
        return instrument

    def _check_free(self, name: str, owner: dict) -> None:
        for family in (self._counters, self._gauges, self._histograms):
            if family is not owner and name in family:
                raise ValueError(f"metric {name!r} already registered with another type")

    def names(self) -> List[str]:
        return sorted([*self._counters, *self._gauges, *self._histograms])

    def value(self, name: str) -> Number:
        """Counter/gauge value or histogram observation count, by name."""
        if name in self._counters:
            return self._counters[name].value
        if name in self._gauges:
            return self._gauges[name].value
        if name in self._histograms:
            return self._histograms[name].count
        raise KeyError(name)

    # -- serialization ------------------------------------------------------
    def to_state(self) -> dict:
        """JSON-safe snapshot; instruments emitted in sorted name order."""
        return {
            "counters": {
                name: self._counters[name].value for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value for name in sorted(self._gauges)
            },
            "histograms": {
                name: {
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    "sum": h.total,
                    "count": h.count,
                }
                for name, h in sorted(self._histograms.items())
            },
        }


# ---------------------------------------------------------------------------
# End-of-run collection from a deployed system
# ---------------------------------------------------------------------------


def collect_cache_stats(system) -> dict:
    """The counters of every consistency-chain member, in canonical nesting.

    ``{"query_cache": {server: {query_id: {...}}}, "replicas": {server:
    {component: {...}}}[, "method_cache": {server: {...}}]}`` — one
    section per mechanism ``kind``, then the server, then the member's
    ``name`` where a server holds several of a kind; keys sorted, so the
    dict is deterministic and directly comparable across runs.  This is
    the one walk of edge state: metrics (and through them the
    availability report), the time series and rule R7 all read its result.
    """
    # The paper's two sections always exist; any other (``method_cache``,
    # level 6) only with a member, so levels 1-5 emit byte-identical dicts.
    stats: Dict[str, dict] = {"query_cache": {}, "replicas": {}}
    for server_name in sorted(system.servers):
        members = system.servers[server_name].consistency.members()
        for member in sorted(members, key=lambda member: member.name or ""):
            section = stats.setdefault(member.kind, {})
            if member.name is None:
                section[server_name] = member.counters()
            else:
                section.setdefault(server_name, {})[member.name] = member.counters()
    return stats


# Metric-name prefix of a cache_stats section where it is not the kind.
_METRIC_PREFIX = {
    "query_cache": "querycache",
    "replicas": "replica",
    "method_cache": "methodcache",
}


def _flatten(counters: Dict[str, Number], prefix: str, nested: dict) -> None:
    """One entry per leaf of a nested counter dict, named by its path."""
    for name, value in nested.items():
        if isinstance(value, dict):
            _flatten(counters, f"{prefix}.{name}", value)
        else:
            counters[f"{prefix}.{name}"] = value


def system_counters(system, generator=None) -> Dict[str, Number]:
    """Every cumulative counter of a deployment, by metric name.

    The one walk of the simulated system's counters: each subsystem names
    its own through ``counters()``, and the edge-state members through
    :func:`collect_cache_stats`.  A subsystem the deployment lacks (JMS,
    the propagator, a data tier, the generator) contributes no names;
    ``resilience.*`` names only the non-zero fault counters and
    ``methodcache.*`` exists only under level 6.  End-of-run metrics
    register every entry; the time-series sampler reads deltas of some.
    """
    cluster = system.cluster
    counters: Dict[str, Number] = dict(system.db_server.counters())
    for source in (
        system.resilience,
        system.jms,
        system.main.update_propagator,
        None if cluster is None else cluster.stats,
        generator,
    ):
        if source is not None:
            counters.update(source.counters())
    for kind, section in collect_cache_stats(system).items():
        _flatten(counters, _METRIC_PREFIX.get(kind, kind), section)
    return counters


def collect_system_metrics(registry: MetricsRegistry, system, generator=None) -> MetricsRegistry:
    """Register every counter of a finished deployment, plus its gauges.

    Counters come from :func:`system_counters`; names are stable dotted
    paths and the registry snapshot is sorted, so it is canonical.
    """
    config = system.testbed.config
    registry.gauge("topology.edge_servers").set(float(config.edge_servers))
    registry.gauge("topology.wan_latency_ms").set(float(config.wan_latency))
    registry.gauge("topology.clients_per_group").set(float(config.clients_per_group))

    for server_name in sorted(system.servers):
        server = system.servers[server_name]
        prefix = f"app_server.{server_name}"
        registry.counter(f"{prefix}.http_requests").inc(server.http_requests)
        registry.counter(f"{prefix}.web_sessions_created").inc(server.web_sessions.created)
        registry.gauge(f"{prefix}.cpu_utilization").set(server.node.cpu_utilization())

    for name, value in system_counters(system, generator).items():
        registry.counter(name).inc(value)

    registry.gauge("db.cpu_utilization").set(system.db_server.node.cpu_utilization())
    jms = system.jms
    registry.gauge("jms.in_flight_at_end").set(jms.in_flight)
    registry.gauge("jms.mean_delivery_latency_ms").set(jms.mean_delivery_latency())
    propagator = system.main.update_propagator
    if propagator is not None:
        registry.gauge("propagator.blocking_time_ms").set(propagator.blocking_time_total)
    if generator is not None:
        registry.gauge("workload.sessions_active").set(float(generator.active))
        registry.gauge("workload.sessions_peak").set(float(generator.peak_active))

    # Staleness is a reading, not a count: a gauge per server with a
    # non-zero window, closed at the end of the run first.
    resilience = system.resilience
    resilience.finalize(system.env.now)
    for server_name in sorted(resilience.staleness_ms):
        staleness = round(resilience.staleness_ms[server_name], 6)
        if staleness:
            registry.gauge(f"resilience.staleness_ms.{server_name}").set(staleness)

    cluster = system.cluster
    if cluster is not None:
        registry.gauge("cluster.staleness_ms").set(round(cluster.stats.staleness_ms, 6))
        registry.gauge("cluster.shards").set(float(cluster.tier.shard_count))
        registry.gauge("cluster.replication_factor").set(
            float(cluster.tier.replication_factor)
        )
    return registry
