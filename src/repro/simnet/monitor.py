"""Response-time measurement.

:class:`ResponseTimeMonitor` aggregates response times per
(client-group, page); this is what the paper's Tables 6/7 report.  The
simulator's call record is the span table (:mod:`repro.obs.spans`).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

__all__ = ["ResponseTimeMonitor", "PageStats"]


@dataclass
class PageStats:
    """Running response-time statistics for one (group, page) cell."""

    count: int = 0
    total: float = 0.0
    total_sq: float = 0.0
    min_seen: float = float("inf")
    maximum: float = 0.0
    samples: List[float] = field(default_factory=list)

    def add(self, value: float, keep_sample: bool = False) -> None:
        self.count += 1
        self.total += value
        self.total_sq += value * value
        if value < self.min_seen:
            self.min_seen = value
        if value > self.maximum:
            self.maximum = value
        if keep_sample:
            self.samples.append(value)

    @property
    def minimum(self) -> float:
        """Smallest observation; 0.0 for an empty cell (never ``inf``)."""
        return self.min_seen if self.count else 0.0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def variance(self) -> float:
        if self.count < 2:
            return 0.0
        mean = self.mean
        return max(0.0, self.total_sq / self.count - mean * mean)

    @property
    def stddev(self) -> float:
        return self.variance ** 0.5

    def percentile(self, q: float) -> float:
        """q in [0, 1]; requires samples to have been kept.

        Linearly interpolates between order statistics, so e.g. the median
        of ``[10, 20]`` is 15 rather than a truncated 10.
        """
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        if len(ordered) == 1:
            return ordered[0]
        position = min(max(q, 0.0), 1.0) * (len(ordered) - 1)
        lower = int(position)
        upper = min(lower + 1, len(ordered) - 1)
        fraction = position - lower
        return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction

    def merge(self, other: "PageStats") -> None:
        """Fold ``other``'s observations into this cell in place."""
        self.count += other.count
        self.total += other.total
        self.total_sq += other.total_sq
        self.min_seen = min(self.min_seen, other.min_seen)
        self.maximum = max(self.maximum, other.maximum)
        if other.samples:
            self.samples.extend(other.samples)

    def to_dict(self) -> dict:
        """JSON-safe snapshot (``inf`` min of an empty cell maps to None)."""
        return {
            "count": self.count,
            "total": self.total,
            "total_sq": self.total_sq,
            "min_seen": None if self.min_seen == float("inf") else self.min_seen,
            "maximum": self.maximum,
            "samples": list(self.samples),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PageStats":
        min_seen = data.get("min_seen")
        return cls(
            count=data["count"],
            total=data["total"],
            total_sq=data["total_sq"],
            min_seen=float("inf") if min_seen is None else min_seen,
            maximum=data["maximum"],
            samples=list(data.get("samples") or ()),
        )


class ResponseTimeMonitor:
    """Aggregates per-page response times by client group.

    Groups are labels such as ``"local"`` / ``"remote"`` combined with the
    session type (``"browser"`` / ``"buyer"`` / ``"bidder"``), matching how
    Tables 6/7 and Figures 7/8 slice the data.
    """

    def __init__(self, keep_samples: bool = False, warmup: float = 0.0):
        self.keep_samples = keep_samples
        self.warmup = warmup
        self._stats: Dict[Tuple[str, str], PageStats] = defaultdict(PageStats)
        self._session_stats: Dict[str, PageStats] = defaultdict(PageStats)
        self.discarded_warmup = 0

    def observe(self, time: float, group: str, page: str, response_time: float) -> None:
        """Record one page response; samples during warm-up are dropped."""
        if time < self.warmup:
            self.discarded_warmup += 1
            return
        self._stats[(group, page)].add(response_time, keep_sample=self.keep_samples)
        self._session_stats[group].add(response_time, keep_sample=self.keep_samples)

    # -- reporting -----------------------------------------------------------
    def pages(self, group: str) -> List[str]:
        return sorted({page for (g, page) in self._stats if g == group})

    def groups(self) -> List[str]:
        return sorted(self._session_stats)

    def page_stats(self, group: str, page: str) -> PageStats:
        return self._stats[(group, page)]

    def mean(self, group: str, page: str) -> float:
        return self._stats[(group, page)].mean

    def session_mean(self, group: str) -> float:
        """Mean response time over every request made by ``group``."""
        return self._session_stats[group].mean

    def table(self) -> Dict[str, Dict[str, float]]:
        """group -> {page -> mean response time}."""
        result: Dict[str, Dict[str, float]] = defaultdict(dict)
        for (group, page), stats in self._stats.items():
            result[group][page] = stats.mean
        return dict(result)

    def merged(self, other: "ResponseTimeMonitor") -> "ResponseTimeMonitor":
        """A new monitor combining this one's observations with ``other``'s.

        Kept samples from either source survive the merge (so percentiles
        keep working), and warm-up discard counters accumulate.  The
        merged monitor keeps samples if either source did.
        """
        merged = ResponseTimeMonitor(
            keep_samples=self.keep_samples or other.keep_samples,
            warmup=max(self.warmup, other.warmup),
        )
        for source in (self, other):
            merged.discarded_warmup += source.discarded_warmup
            for (group, page), stats in source._stats.items():
                merged._stats[(group, page)].merge(stats)
            for group, stats in source._session_stats.items():
                merged._session_stats[group].merge(stats)
        return merged

    # -- serialization -------------------------------------------------------
    def to_state(self) -> dict:
        """A picklable, JSON-safe snapshot of every cell.

        Cells are emitted in sorted key order so the state (and anything
        derived from it) is identical however the observations arrived —
        the property the parallel experiment runner's determinism rests on.
        """
        return {
            "keep_samples": self.keep_samples,
            "warmup": self.warmup,
            "discarded_warmup": self.discarded_warmup,
            "stats": [
                [group, page, stats.to_dict()]
                for (group, page), stats in sorted(self._stats.items())
            ],
            "session_stats": [
                [group, stats.to_dict()]
                for group, stats in sorted(self._session_stats.items())
            ],
        }

    @classmethod
    def from_state(cls, state: dict) -> "ResponseTimeMonitor":
        """Rebuild a monitor from :meth:`to_state` output."""
        monitor = cls(
            keep_samples=state.get("keep_samples", False),
            warmup=state.get("warmup", 0.0),
        )
        monitor.discarded_warmup = state.get("discarded_warmup", 0)
        for group, page, stats in state.get("stats", ()):
            monitor._stats[(group, page)] = PageStats.from_dict(stats)
        for group, stats in state.get("session_stats", ()):
            monitor._session_stats[group] = PageStats.from_dict(stats)
        return monitor
