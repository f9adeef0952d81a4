"""Deterministic fault injection and the availability report.

The WAN in the source paper is slow *and unreliable*; this package adds
the unreliable half.  A :class:`FaultSchedule` (pure data, picklable)
describes link partitions, latency spikes, packet-loss windows and
app-server crash/restart windows; :class:`FaultInjector` turns it into
kernel processes against a deployed system; :class:`ResilienceStats`
counts what the middleware did about the faults, and
:mod:`~repro.faults.report` reads those counters back out of each cell's
metrics snapshot into the per-configuration availability table.

Determinism contract: an empty schedule adds zero kernel events and zero
RNG draws (runs are byte-identical to fault-free ones); a non-empty
schedule draws only from named streams derived from the cell's master
seed, so results are byte-identical under any ``--jobs N``.
"""

from .. import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "FaultSchedule": "schedule",
    "LinkPartition": "schedule",
    "LatencySpike": "schedule",
    "LossWindow": "schedule",
    "ServerCrash": "schedule",
    "FaultInjector": "injector",
    "ResilienceStats": "stats",
    "SCENARIOS": "scenarios",
    "scenario": "scenarios",
    "load_schedule": "scenarios",
    "availability_row": "report",
    "AvailabilityTable": "report",
    "build_availability_table": "report",
    "render_availability_table": "report",
    "availability_to_json": "report",
})
