"""The load generator: one workload under either arrival policy (§3.3).

"In all of our tests, we use a combined client load of 30 web page
requests per second, coming from a mixture of 80% browsers and 20%
buyers/bidders, equally divided between all client machines (10 HTTP
requests per second coming from each of the three client groups)."

What a user does is :func:`~repro.workload.driver.drive_sessions`; the
config decides only *when sessions exist* and *how long a user thinks*:

:class:`WorkloadConfig` — the paper's closed population.
    Each client issues one request per ``think_time`` on average (soft
    delays make the rate response-time independent), so a group of
    ``rate x think_time`` clients produces ``rate`` requests/second.
    Client start times are staggered across one think-time interval to
    avoid lockstep arrivals.  A client is a session source that never
    drops: it yields ``c{id}-s{n}`` sessions back to back until
    ``duration_ms``.
:class:`~repro.workload.openloop.OpenLoopConfig` — the open loop.
    An arrival process spawns one ``o{n}`` session per admitted arrival
    with the full (not soft) think time and no deadline; an arrival that
    finds ``max_sessions`` active is dropped.

Either way this generator is the one owner the driver writes to, and
every session goes through the same accounting: pulling it admits it
and makes it active; the next pull, or closing the source, completes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Generator, Iterator, List, Optional, Tuple, Union

from ..core.distribution import DeployedSystem
from ..core.usage import PageVisit, UsagePattern
from ..obs.store import MeasurementStore
from ..simnet.kernel import Environment, Event
from ..simnet.rng import Streams
from .driver import drive_sessions, workload_counters
from .openloop import OpenLoopConfig, check_shared_fields

__all__ = ["WorkloadConfig", "ClientSpec", "LoadGenerator"]


@dataclass(frozen=True)
class WorkloadConfig:
    """Paper defaults: 30 req/s combined, 80/20 mix, soft think time.

    Frozen, like :class:`~repro.workload.openloop.OpenLoopConfig`: one
    config is shared by every cell of a sweep and shipped to workers.
    """

    total_rate_per_s: float = 30.0
    browser_fraction: float = 0.8
    think_time_ms: float = 7_000.0
    duration_ms: float = 120_000.0
    warmup_ms: float = 20_000.0

    def __post_init__(self):
        check_shared_fields(self)
        if not 0 < self.total_rate_per_s < math.inf:  # NaN fails too
            raise ValueError("total_rate_per_s must be positive and finite")
        if self.warmup_ms >= self.duration_ms:
            # Clients stop sending at duration_ms, so nothing would be
            # observed.  (The open loop differs: its sessions drain past
            # duration_ms and are measured.)
            raise ValueError("warmup must be shorter than duration")


class ClientSpec:
    """One closed-loop client: where it sits and what it runs.

    A plain class, not a ``NamedTuple``: the profiler files every
    generated constructor under one key, which would blur the suite's
    per-layer call counts.
    """

    __slots__ = ("id", "machine", "group", "pattern", "start_offset")

    def __init__(
        self, id: int, machine: str, group: str, pattern: UsagePattern, start_offset: float
    ):
        #: Position in the population (1..N in build order): ``c{id}-s{n}``
        #: session ids feed the span sampler, so they must not depend on
        #: what else this process ran.
        self.id = id
        self.machine = machine
        self.group = group
        self.pattern = pattern
        self.start_offset = start_offset


class LoadGenerator:
    """Runs one workload against a deployment and owns its counters."""

    def __init__(
        self,
        system: DeployedSystem,
        streams: Streams,
        browser_pattern: UsagePattern,
        writer_pattern: UsagePattern,
        config: Union[WorkloadConfig, OpenLoopConfig, None] = None,
        writer_group_name: str = "buyer",
        store: Optional[MeasurementStore] = None,
    ):
        self.system = system
        self.streams = streams
        self.browser_pattern = browser_pattern
        self.writer_pattern = writer_pattern
        self.config = config or WorkloadConfig()
        self.writer_group_name = writer_group_name
        #: Where the driver records each served visit.
        self.store = store or MeasurementStore(warmup=self.config.warmup_ms)
        # What the driver counts.
        self.requests_sent = 0
        self.errors = 0
        self.failovers = 0
        self.think_ms = 0.0
        #: Lost visits by the class name of the exception that lost them.
        self.error_kinds: Dict[str, int] = {}
        # Session accounting; only the open loop drops arrivals.
        self.arrivals = 0
        self.admitted = 0
        self.dropped_sessions = 0
        self.completions = 0
        self.active = 0
        self.peak_active = 0
        self.clients: List[ClientSpec] = []
        self._targets: List[Tuple[str, str, str]] = []

    # -- closed loop: the population ------------------------------------------
    def _group_rate(self) -> float:
        """Requests/second contributed by each server's client group."""
        groups = len(self.system.testbed.app_servers)
        return self.config.total_rate_per_s / groups

    def clients_per_group(self) -> Dict[str, int]:
        """(browsers, writers) per group, from rate x think time.

        A side with a non-zero fraction gets at least one client; a
        fraction of exactly 0 gets none, as in the open loop.
        """
        per_group = self._group_rate() * self.config.think_time_ms / 1000.0

        def count(fraction: float) -> int:
            return max(1, round(per_group * fraction)) if fraction > 0 else 0

        fraction = self.config.browser_fraction
        return {"browser": count(fraction), "writer": count(1.0 - fraction)}

    def build(self) -> List[ClientSpec]:
        """The client population, in build order (idempotent)."""
        if self.clients:
            return self.clients
        counts = self.clients_per_group()
        testbed = self.system.testbed
        think_time = self.config.think_time_ms
        stagger_stream = self.streams.get("client-stagger")
        for server_name in testbed.app_servers:
            locality = "local" if server_name == testbed.main_server else "remote"
            machines = testbed.clients_of(server_name)
            specs = [
                ("browser", self.browser_pattern, counts["browser"]),
                (self.writer_group_name, self.writer_pattern, counts["writer"]),
            ]
            for kind, pattern, count in specs:
                group = f"{locality}-{kind}"
                for index in range(count):
                    self.clients.append(
                        ClientSpec(
                            id=len(self.clients) + 1,
                            machine=machines[index % len(machines)],
                            group=group,
                            pattern=pattern,
                            start_offset=stagger_stream.uniform(0, think_time),
                        )
                    )
        return self.clients

    def _client_sessions(
        self, env: Environment, client: ClientSpec
    ) -> Iterator[Tuple[str, List[PageVisit]]]:
        """``c{id}-s{n}`` sessions back to back until ``duration_ms``.

        A client never drops: every pull is an arrival and an admission.
        """
        end_time = self.config.duration_ms
        prefix = f"c{client.id}-s"
        index = 0
        while env.now < end_time:
            self.arrivals += 1
            self.admitted += 1
            yield from self._one_session(prefix, index, client.pattern)
            index += 1

    def _soft_delay(self, elapsed: float, last: bool, broken: bool) -> float:
        """Soft delay: "the client waits for only DELAY - response time"
        (§3.3), so the think time absorbs the response time (of a lost
        visit too), and a user who gives a broken session up starts the
        next one think-time after the failed request was sent."""
        return self.config.think_time_ms - elapsed

    # -- open loop: the arrival process ---------------------------------------
    def _build_targets(self) -> List[Tuple[str, str, str]]:
        """(client machine, browser group, writer group) in round-robin
        order across groups.

        Transposed — first machine of every group, then second of every
        group, ... — so consecutive arrivals spread across entry points
        instead of piling onto one edge.  The group labels are built
        here, once per entry point, and shared by its sessions.
        """
        if self._targets:
            return self._targets
        testbed = self.system.testbed
        columns: List[List[Tuple[str, str, str]]] = []
        for server_name in testbed.app_servers:
            locality = "local" if server_name == testbed.main_server else "remote"
            browsers = f"{locality}-browser"
            writers = f"{locality}-{self.writer_group_name}"
            columns.append(
                [
                    (machine, browsers, writers)
                    for machine in testbed.clients_of(server_name)
                ]
            )
        depth = max(len(column) for column in columns)
        for index in range(depth):
            for column in columns:
                if index < len(column):
                    self._targets.append(column[index])
        return self._targets

    def _arrivals(self, env: Environment) -> Generator[Event, None, None]:
        config = self.config
        targets = self._build_targets()
        n_targets = len(targets)
        gap_rng = self.streams.get("openloop-arrivals")
        mix_random = self.streams.get("openloop-mix").random
        draw_gap = config.draw_gap
        mean_gap = config.mean_gap_ms
        duration = config.duration_ms
        max_sessions = config.max_sessions
        think = self._full_think  # one bound method for every session
        index = 0
        while True:
            gap = draw_gap(gap_rng, mean_gap)
            # Scenario modulation scales the *local* mean gap by the
            # instantaneous rate factor.
            factor = config.rate_factor(env.now)
            if factor != 1.0:
                gap /= factor
            yield env.sleep(gap)
            if env.now >= duration:
                return
            self.arrivals += 1
            if max_sessions and self.active >= max_sessions:
                # Open loop: an arrival finding the system full is turned
                # away, never queued — the defining drop mode.
                self.dropped_sessions += 1
                continue
            machine, browsers, writers = targets[index % n_targets]
            index += 1
            if mix_random() < config.browser_fraction:
                group, pattern = browsers, self.browser_pattern
            else:
                group, pattern = writers, self.writer_pattern
            self.admitted += 1
            env.process(
                drive_sessions(
                    env,
                    self,
                    machine,
                    group,
                    self._one_session("o", self.arrivals, pattern),
                    think,
                    math.inf,
                )
            )

    def _full_think(self, elapsed: float, last: bool, broken: bool) -> float:
        """Open loop uses the *full* think time: the arrival process owns
        the rate, so there is nothing for a soft delay to hold steady.
        Truncated to whole milliseconds — the RUBiS client emulator
        schedules think times through Thread.sleep(ms) — which also lets
        the kernel batch same-instant wake-ups.  Nothing is drawn after a
        session's last visit or a broken one: the session just ends."""
        if last or broken:
            return 0.0
        return float(int(self._think_rng.expovariate(1.0 / self.config.think_time_ms)))

    # -- both loops -------------------------------------------------------------
    def _one_session(
        self, prefix: str, index: int, pattern: UsagePattern
    ) -> Iterator[Tuple[str, List[PageVisit]]]:
        """The single ``{prefix}{index}`` session, drawn when pulled.

        Active from the driver's pull until it asks for the next session
        (or drops the iterator), whichever way the session ends.
        """
        self.active += 1
        if self.active > self.peak_active:
            self.peak_active = self.active
        try:
            yield f"{prefix}{index}", pattern.session(self.streams, index)
        finally:
            self.active -= 1
            self.completions += 1

    def start(self, env: Environment) -> None:
        """Register the arrival process, or every client of the population."""
        if isinstance(self.config, OpenLoopConfig):
            self._think_rng = self.streams.get("openloop-think")
            env.process(self._arrivals(env), name="open-loop-arrivals")
            return
        end_time = self.config.duration_ms
        for client in self.build():
            env.process(
                drive_sessions(
                    env,
                    self,
                    client.machine,
                    client.group,
                    self._client_sessions(env, client),
                    self._soft_delay,
                    end_time,
                    client.start_offset,
                ),
                name=f"client-{client.id}",
            )

    def run(self, env: Environment) -> MeasurementStore:
        """Start the workload and run until every session has ended."""
        self.start(env)
        env.run()
        return self.store

    # -- reporting --------------------------------------------------------------
    def total_requests(self) -> int:
        return self.requests_sent

    def counters(self) -> Dict[str, float]:
        """Cumulative workload and session counters, by metric name."""
        return {
            **workload_counters(self),
            "workload.sessions_arrived": self.arrivals,
            "workload.sessions_admitted": self.admitted,
            "workload.sessions_completed": self.completions,
            "workload.sessions_dropped": self.dropped_sessions,
        }

    def achieved_rate_per_s(self) -> float:
        return self.requests_sent / (self.config.duration_ms / 1000.0)
