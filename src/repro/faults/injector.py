"""Turn a :class:`FaultSchedule` into live kernel processes.

``FaultInjector.install`` spawns one process per scheduled fault window;
each sleeps to its window start, flips the target's fault state, sleeps
to the window end, and flips it back.  An empty schedule installs
nothing — zero kernel events, zero RNG draws — which is the empty-
schedule byte-identity contract.

Jitter and loss draws use streams named after the faulted link
(``fault.latency.<link>``, ``fault.loss.<link>``), derived from the
cell's master seed: independent of every workload stream, identical for
any worker count.

When span recording is on, each applied window is also recorded as a
``fault`` span, so partitions and crashes show up on the trace timeline
next to the requests they disturbed.
"""

from __future__ import annotations

from typing import Optional

from ..simnet.kernel import Environment
from ..simnet.rng import Streams
from .schedule import FaultSchedule

__all__ = ["FaultInjector"]


class FaultInjector:
    """Applies one schedule to one deployed system."""

    def __init__(self, schedule: FaultSchedule, streams: Streams):
        self.schedule = schedule.validate()
        self.streams = streams
        self.partitions_applied = 0
        self.latency_spikes_applied = 0
        self.loss_windows_applied = 0
        self.crashes_applied = 0
        # Faults naming servers absent from this deployment (e.g. an edge
        # crash under the CENTRALIZED plan, which stands up no edge
        # process) are counted here and skipped, not errors: one scenario
        # must run unchanged across all five configurations.
        self.skipped = 0
        self._spans = None
        self._env: Optional[Environment] = None

    def install(self, env: Environment, system) -> "FaultInjector":
        """Spawn the fault processes against ``system`` (idempotent per call)."""
        self._env = env
        self._spans = system.trace
        network = system.testbed.network
        for index, fault in enumerate(self.schedule.partitions):
            link = network.link_between(fault.a, fault.b)
            env.process(
                self._run_partition(env, link, fault),
                name=f"fault-partition-{index}",
            )
        for index, fault in enumerate(self.schedule.latency_spikes):
            link = network.link_between(fault.a, fault.b)
            rng = self.streams.get(f"fault.latency.{link.name}")
            env.process(
                self._run_latency_spike(env, link, fault, rng),
                name=f"fault-latency-{index}",
            )
        for index, fault in enumerate(self.schedule.loss_windows):
            link = network.link_between(fault.a, fault.b)
            rng = self.streams.get(f"fault.loss.{link.name}")
            env.process(
                self._run_loss_window(env, link, fault, rng),
                name=f"fault-loss-{index}",
            )
        for index, fault in enumerate(self.schedule.crashes):
            server = system.servers.get(fault.server)
            if server is None:
                # A crash naming no app server may target a data-tier
                # seat ("db", or an edge hosting only replicas): resolve
                # it to the cluster members seated there, if any.
                if system.cluster is not None:
                    server = system.cluster.seat_target(fault.server)
            if server is None:
                self.skipped += 1
                continue
            env.process(
                self._run_crash(env, server, fault), name=f"fault-crash-{index}"
            )
        return self

    # -- span bookkeeping ---------------------------------------------------
    def _open_span(self, name: str, node: str):
        if self._spans is None:
            return None
        return self._spans.start_span(
            kind="fault", name=name, node=node, time=self._env.now
        )

    def _close_span(self, span) -> None:
        if span is not None:
            self._spans.finish_span(span, self._env.now)

    # -- fault processes ----------------------------------------------------
    def _run_partition(self, env, link, fault):
        if fault.start > 0:
            yield env.sleep(fault.start)
        link.set_down(True)
        self.partitions_applied += 1
        span = self._open_span(f"partition {link.name}", fault.a)
        yield env.sleep(fault.end - fault.start)
        link.set_down(False)
        self._close_span(span)

    def _run_latency_spike(self, env, link, fault, rng):
        if fault.start > 0:
            yield env.sleep(fault.start)
        link.set_latency_fault(fault.extra_ms, fault.jitter_ms, rng=rng)
        self.latency_spikes_applied += 1
        span = self._open_span(f"latency-spike {link.name}", fault.a)
        yield env.sleep(fault.end - fault.start)
        link.clear_latency_fault()
        self._close_span(span)

    def _run_loss_window(self, env, link, fault, rng):
        if fault.start > 0:
            yield env.sleep(fault.start)
        link.set_loss(fault.probability, rng=rng)
        self.loss_windows_applied += 1
        span = self._open_span(f"loss {link.name}", fault.a)
        yield env.sleep(fault.end - fault.start)
        link.clear_loss()
        self._close_span(span)

    def _run_crash(self, env, server, fault):
        if fault.start > 0:
            yield env.sleep(fault.start)
        server.crash()
        self.crashes_applied += 1
        span = self._open_span(f"crash {server.name}", server.node.name)
        yield env.sleep(fault.end - fault.start)
        server.restart()
        self._close_span(span)
