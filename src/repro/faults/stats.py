"""Deployment-wide resilience counters.

One :class:`ResilienceStats` instance is shared by every server, the JMS
provider and the update propagator of a deployment (the
``DeployedSystem`` owns it; each server takes its handle when it is
built), and :meth:`~ResilienceStats.counters` publishes it through the
one statistics walk (``obs.metrics.system_counters``) like every other
subsystem; the availability report reads the cell's metrics
snapshot.  The class lives at the bottom of the dependency graph — it
imports nothing — so both ``simnet``-adjacent and middleware code can
use it freely.

Staleness accounting: a replica host is *stale* from the moment an
update destined for it is first dropped (failed sync push, failed JMS
delivery) until the next update lands there — or the run ends
(:meth:`finalize`).  The summed window lengths are the paper-style
"seconds of staleness while partitioned" number.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["ResilienceStats"]


class ResilienceStats:
    """Counters for the fault/resilience layer; all zero in fault-free runs."""

    # The counted facts, by attribute (and ``resilience.<name>`` metric) name.
    COUNTERS = (
        "rmi_retries",
        "rmi_timeouts",
        "jms_redeliveries",
        "jms_dead_lettered",
        "sync_push_failures",
        "dropped_updates",
        "pool_refusals",
        "server_crashes",
    )

    def __init__(self):
        self.rmi_retries = 0
        self.rmi_timeouts = 0
        self.jms_redeliveries = 0
        self.jms_dead_lettered = 0
        self.sync_push_failures = 0
        self.dropped_updates = 0  # dead-lettered messages + failed sync pushes
        self.pool_refusals = 0
        self.server_crashes = 0
        # server name -> time the open staleness window started
        self._stale_since: Dict[str, float] = {}
        # server name -> accumulated staleness (ms) over closed windows
        self.staleness_ms: Dict[str, float] = {}

    # -- staleness windows --------------------------------------------------
    def mark_stale(self, server: str, now: float) -> None:
        """Open a staleness window for ``server`` (no-op if already open)."""
        self._stale_since.setdefault(server, now)

    def mark_fresh(self, server: str, now: float) -> None:
        """Close the open staleness window for ``server``, if any."""
        since = self._stale_since.pop(server, None)
        if since is not None:
            self.staleness_ms[server] = self.staleness_ms.get(server, 0.0) + (now - since)

    def finalize(self, now: float) -> None:
        """Close every still-open window at end of run (idempotent)."""
        for server in sorted(self._stale_since):
            self.mark_fresh(server, now)

    # -- reporting ----------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        """The non-zero counters, by metric name: a fault-free run names
        none, so its metrics snapshot is the one it had before the fault
        subsystem existed."""
        return {
            f"resilience.{name}": getattr(self, name)
            for name in self.COUNTERS
            if getattr(self, name)
        }
