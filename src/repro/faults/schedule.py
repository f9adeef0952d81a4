"""Fault schedules: pure data describing *when* the network misbehaves.

A :class:`FaultSchedule` is a frozen, picklable value object — tuples of
frozen dataclasses holding only strings and floats — so it rides inside
a ``RunSpec`` across process boundaries unchanged.  All randomness
(latency jitter, per-packet loss draws) is deferred to run time, where
the injector derives named streams from the cell's master seed via
:class:`repro.simnet.rng.Streams`; the schedule itself is deterministic
by construction, which is what keeps fault runs byte-identical under any
``--jobs N``.

Times are absolute simulated milliseconds from the start of the run
(the workload's warm-up included).  Link faults name the two *adjacent*
nodes of the testbed link they target (e.g. ``edge1``/``router``);
server crashes name the application-server node (e.g. ``edge1``).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Tuple

__all__ = [
    "LinkPartition",
    "LatencySpike",
    "LossWindow",
    "ServerCrash",
    "FaultSchedule",
]


def _check_window(what: str, start: float, end: float) -> None:
    if not (math.isfinite(start) and math.isfinite(end)):
        raise ValueError(f"{what}: start and end must be finite, got {start}, {end}")
    if start < 0:
        raise ValueError(f"{what}: start must be non-negative, got {start}")
    if end <= start:
        raise ValueError(f"{what}: end ({end}) must be after start ({start})")


@dataclass(frozen=True)
class LinkPartition:
    """The link between ``a`` and ``b`` is down during [start, end)."""

    a: str
    b: str
    start: float
    end: float

    def validate(self) -> None:
        _check_window(f"partition {self.a}<->{self.b}", self.start, self.end)


@dataclass(frozen=True)
class LatencySpike:
    """Extra one-way latency (+- uniform jitter) on a link during [start, end)."""

    a: str
    b: str
    start: float
    end: float
    extra_ms: float
    jitter_ms: float = 0.0

    def validate(self) -> None:
        _check_window(f"latency spike {self.a}<->{self.b}", self.start, self.end)
        if not (0 <= self.extra_ms < math.inf and 0 <= self.jitter_ms < math.inf):
            raise ValueError("latency spike: extra_ms/jitter_ms must be finite and non-negative")
        if self.extra_ms == 0 and self.jitter_ms == 0:
            raise ValueError("latency spike: extra_ms and jitter_ms are both zero")


@dataclass(frozen=True)
class LossWindow:
    """Each packet crossing the link is dropped with ``probability``."""

    a: str
    b: str
    start: float
    end: float
    probability: float

    def validate(self) -> None:
        _check_window(f"loss window {self.a}<->{self.b}", self.start, self.end)
        if not 0.0 < self.probability <= 1.0:
            raise ValueError(
                f"loss window: probability must be in (0, 1], got {self.probability}"
            )


@dataclass(frozen=True)
class ServerCrash:
    """The app-server process on ``server`` is down during [start, end).

    A crash drains volatile server state (HTTP sessions, stateful bean
    instances, replica and query caches, connection pools); the restart
    at ``end`` comes back cold.  The *node* keeps routing — only the
    process dies — so clients can fail over to another entry point.
    """

    server: str
    start: float
    end: float

    def validate(self) -> None:
        _check_window(f"crash of {self.server}", self.start, self.end)


@dataclass(frozen=True)
class FaultSchedule:
    """The full fault plan for one run; empty by default."""

    name: str = "empty"
    partitions: Tuple[LinkPartition, ...] = ()
    latency_spikes: Tuple[LatencySpike, ...] = ()
    loss_windows: Tuple[LossWindow, ...] = ()
    crashes: Tuple[ServerCrash, ...] = field(default=())

    @property
    def empty(self) -> bool:
        return not (
            self.partitions or self.latency_spikes or self.loss_windows or self.crashes
        )

    def validate(self) -> "FaultSchedule":
        for fault in (
            *self.partitions,
            *self.latency_spikes,
            *self.loss_windows,
            *self.crashes,
        ):
            fault.validate()
        return self

    def windows(self) -> Tuple[dict, ...]:
        """Labelled fault windows for telemetry overlays.

        A flat, canonically ordered projection — ``{"kind", "label",
        "start", "end"}`` sorted by (start, end, kind, label) — that the
        time-series layer stamps onto its artifacts so SLO evaluation
        can flag in-fault windows and report recovery time per fault.
        """
        rows = []
        for p in self.partitions:
            rows.append(
                {"kind": "partition", "label": f"{p.a}<->{p.b}",
                 "start": p.start, "end": p.end}
            )
        for s in self.latency_spikes:
            rows.append(
                {"kind": "latency", "label": f"{s.a}<->{s.b}",
                 "start": s.start, "end": s.end}
            )
        for w in self.loss_windows:
            rows.append(
                {"kind": "loss", "label": f"{w.a}<->{w.b}",
                 "start": w.start, "end": w.end}
            )
        for c in self.crashes:
            rows.append(
                {"kind": "crash", "label": c.server,
                 "start": c.start, "end": c.end}
            )
        rows.sort(key=lambda r: (r["start"], r["end"], r["kind"], r["label"]))
        return tuple(rows)

    # -- JSON round trip ----------------------------------------------------
    def to_json(self) -> dict:
        """Plain-dict form (sorted-key friendly) for scenario files."""
        return {
            "name": self.name,
            "partitions": [asdict(p) for p in self.partitions],
            "latency_spikes": [asdict(s) for s in self.latency_spikes],
            "loss_windows": [asdict(w) for w in self.loss_windows],
            "crashes": [asdict(c) for c in self.crashes],
        }

    @classmethod
    def from_json(cls, data: dict) -> "FaultSchedule":
        unknown = set(data) - {
            "name",
            "partitions",
            "latency_spikes",
            "loss_windows",
            "crashes",
        }
        if unknown:
            raise ValueError(f"unknown fault-schedule keys: {sorted(unknown)}")
        return cls(
            name=data.get("name", "custom"),
            partitions=tuple(
                LinkPartition(**entry) for entry in data.get("partitions", ())
            ),
            latency_spikes=tuple(
                LatencySpike(**entry) for entry in data.get("latency_spikes", ())
            ),
            loss_windows=tuple(
                LossWindow(**entry) for entry in data.get("loss_windows", ())
            ),
            crashes=tuple(ServerCrash(**entry) for entry in data.get("crashes", ())),
        ).validate()
