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
from dataclasses import asdict, dataclass
from typing import ClassVar, Tuple

__all__ = [
    "LinkPartition",
    "LatencySpike",
    "LossWindow",
    "ServerCrash",
    "FaultSchedule",
]


class Fault:
    """What every entry type shares: a [start, end) window on one target.

    ``KIND`` names the entry in :meth:`FaultSchedule.windows`, ``NOUN``
    in error messages; ``label`` is the target, ``a<->b`` for a link.
    """

    KIND: ClassVar[str]
    NOUN: ClassVar[str]

    @property
    def label(self) -> str:
        return f"{self.a}<->{self.b}"

    def validate(self) -> None:
        what, start, end = f"{self.NOUN} {self.label}", self.start, self.end
        if not (math.isfinite(start) and math.isfinite(end)):
            raise ValueError(f"{what}: start and end must be finite, got {start}, {end}")
        if start < 0:
            raise ValueError(f"{what}: start must be non-negative, got {start}")
        if end <= start:
            raise ValueError(f"{what}: end ({end}) must be after start ({start})")


@dataclass(frozen=True)
class LinkPartition(Fault):
    """The link between ``a`` and ``b`` is down during [start, end)."""

    KIND: ClassVar[str] = "partition"
    NOUN: ClassVar[str] = "partition"

    a: str
    b: str
    start: float
    end: float


@dataclass(frozen=True)
class LatencySpike(Fault):
    """Extra one-way latency (+- uniform jitter) on a link during [start, end)."""

    KIND: ClassVar[str] = "latency"
    NOUN: ClassVar[str] = "latency spike"

    a: str
    b: str
    start: float
    end: float
    extra_ms: float
    jitter_ms: float = 0.0

    def validate(self) -> None:
        super().validate()
        if not (0 <= self.extra_ms < math.inf and 0 <= self.jitter_ms < math.inf):
            raise ValueError("latency spike: extra_ms/jitter_ms must be finite and non-negative")
        if self.extra_ms == 0 and self.jitter_ms == 0:
            raise ValueError("latency spike: extra_ms and jitter_ms are both zero")


@dataclass(frozen=True)
class LossWindow(Fault):
    """Each packet crossing the link is dropped with ``probability``."""

    KIND: ClassVar[str] = "loss"
    NOUN: ClassVar[str] = "loss window"

    a: str
    b: str
    start: float
    end: float
    probability: float

    def validate(self) -> None:
        super().validate()
        if not 0.0 < self.probability <= 1.0:
            raise ValueError(
                f"loss window: probability must be in (0, 1], got {self.probability}"
            )


@dataclass(frozen=True)
class ServerCrash(Fault):
    """The app-server process on ``server`` is down during [start, end).

    A crash drains volatile server state (HTTP sessions, stateful bean
    instances, replica and query caches, connection pools); the restart
    at ``end`` comes back cold.  The *node* keeps routing — only the
    process dies — so clients can fail over to another entry point.
    """

    KIND: ClassVar[str] = "crash"
    NOUN: ClassVar[str] = "crash of"

    server: str
    start: float
    end: float

    @property
    def label(self) -> str:
        return self.server


# The schedule's JSON keys and the entry each one lists, in install order.
_ENTRY_TYPES = {
    "partitions": LinkPartition,
    "latency_spikes": LatencySpike,
    "loss_windows": LossWindow,
    "crashes": ServerCrash,
}


@dataclass(frozen=True)
class FaultSchedule:
    """The full fault plan for one run; empty by default."""

    name: str = "empty"
    partitions: Tuple[LinkPartition, ...] = ()
    latency_spikes: Tuple[LatencySpike, ...] = ()
    loss_windows: Tuple[LossWindow, ...] = ()
    crashes: Tuple[ServerCrash, ...] = ()

    def faults(self) -> Tuple[Fault, ...]:
        """Every fault, entry type by entry type in ``_ENTRY_TYPES`` order."""
        return tuple(fault for key in _ENTRY_TYPES for fault in getattr(self, key))

    @property
    def empty(self) -> bool:
        return not self.faults()

    def validate(self) -> "FaultSchedule":
        for fault in self.faults():
            fault.validate()
        return self

    def windows(self) -> Tuple[dict, ...]:
        """Labelled fault windows for telemetry overlays.

        A flat, canonically ordered projection — ``{"kind", "label",
        "start", "end"}`` sorted by (start, end, kind, label) — that the
        time-series layer stamps onto its artifacts so SLO evaluation
        can flag in-fault windows and report recovery time per fault.
        """
        rows = [
            {"kind": f.KIND, "label": f.label, "start": f.start, "end": f.end}
            for f in self.faults()
        ]
        rows.sort(key=lambda r: (r["start"], r["end"], r["kind"], r["label"]))
        return tuple(rows)

    # -- JSON round trip ----------------------------------------------------
    def to_json(self) -> dict:
        """Plain-dict form (sorted-key friendly) for scenario files."""
        entries = {key: [asdict(f) for f in getattr(self, key)] for key in _ENTRY_TYPES}
        return {"name": self.name, **entries}

    @classmethod
    def from_json(cls, data: dict) -> "FaultSchedule":
        """Read :meth:`to_json`'s form; any malformed input is a ``ValueError``."""
        if not isinstance(data, dict):
            raise ValueError("a fault schedule must be a JSON object")
        unknown = set(data) - {"name", *_ENTRY_TYPES}
        if unknown:
            raise ValueError(f"unknown fault-schedule keys: {sorted(unknown)}")
        try:
            entries = {
                key: tuple(kind(**entry) for entry in data.get(key, ()))
                for key, kind in _ENTRY_TYPES.items()
            }
        except TypeError as exc:
            raise ValueError(f"bad fault-schedule entry: {exc}") from None
        return cls(name=data.get("name", "custom"), **entries).validate()
