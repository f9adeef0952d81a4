"""Turn a :class:`FaultSchedule` into live kernel processes.

Every fault is one window: ``FaultInjector.install`` binds each
scheduled fault to an ``apply``/``clear`` pair on its target — a link's
down flag, latency fault or loss, or a server's crash and restart — and
spawns one :meth:`~FaultInjector._window` process for it, which sleeps
to the window start, applies, sleeps to the window end, and clears.  An
empty schedule installs nothing — zero kernel events, zero RNG draws —
which is the empty-schedule byte-identity contract.

Jitter and loss draws use streams named after the faulted link
(``fault.latency.<link>``, ``fault.loss.<link>``), derived from the
cell's master seed: independent of every workload stream, identical for
any worker count.

When span recording is on, each applied window is also recorded as a
``fault`` span, so partitions and crashes show up on the trace timeline
next to the requests they disturbed.
"""

from __future__ import annotations

from functools import partial
from typing import Dict

from ..simnet.kernel import Environment
from ..simnet.rng import Streams
from .schedule import FaultSchedule, LatencySpike, LinkPartition, ServerCrash

__all__ = ["FaultInjector"]


class FaultInjector:
    """Applies one schedule to one deployed system."""

    def __init__(self, schedule: FaultSchedule, streams: Streams):
        self.schedule = schedule.validate()
        self.streams = streams
        # Windows opened so far, by fault kind (``Fault.KIND``).
        self.applied: Dict[str, int] = {}
        # Faults naming servers absent from this deployment (e.g. an edge
        # crash under the CENTRALIZED plan, which stands up no edge
        # process) are counted here and skipped, not errors: one scenario
        # must run unchanged across all five configurations.
        self.skipped = 0

    def install(self, env: Environment, system) -> "FaultInjector":
        """Spawn one window process per fault against ``system``; call once per run."""
        for index, fault in enumerate(self.schedule.faults()):
            bound = self._bind(fault, system)
            if bound is None:
                self.skipped += 1
                continue
            env.process(
                self._window(env, system.trace, fault, *bound),
                name=f"fault-{fault.KIND}-{index}",
            )
        return self

    def _bind(self, fault, system):
        """``(apply, clear, span name, node)`` for ``fault`` on ``system``;
        None for a crash naming nothing this deployment stands up."""
        if isinstance(fault, ServerCrash):
            server = system.servers.get(fault.server)
            if server is None and system.cluster is not None:
                # A crash naming no app server may target a data-tier
                # seat ("db", or an edge hosting only replicas): resolve
                # it to the cluster members seated there, if any.
                server = system.cluster.seat_target(fault.server)
            if server is None:
                return None
            return server.crash, server.restart, f"crash {server.name}", server.node.name
        link = system.testbed.network.link_between(fault.a, fault.b)
        if isinstance(fault, LinkPartition):
            apply, clear = partial(link.set_down, True), partial(link.set_down, False)
            return apply, clear, f"partition {link.name}", fault.a
        if isinstance(fault, LatencySpike):
            rng = self.streams.get(f"fault.latency.{link.name}")
            apply = partial(link.set_latency_fault, fault.extra_ms, fault.jitter_ms, rng=rng)
            return apply, link.clear_latency_fault, f"latency-spike {link.name}", fault.a
        rng = self.streams.get(f"fault.loss.{link.name}")
        apply = partial(link.set_loss, fault.probability, rng=rng)
        return apply, link.clear_loss, f"loss {link.name}", fault.a

    def _window(self, env, spans, fault, apply, clear, span_name, node):
        if fault.start > 0:
            yield env.sleep(fault.start)
        apply()
        self.applied[fault.KIND] = self.applied.get(fault.KIND, 0) + 1
        span = None
        if spans is not None:
            span = spans.start_span(kind="fault", name=span_name, node=node, time=env.now)
        yield env.sleep(fault.end - fault.start)
        clear()
        if spans is not None:
            spans.finish_span(span, env.now)
