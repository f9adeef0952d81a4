"""The parent commit's two session loops, kept as oracles.

``ReferenceClient.run`` and ``ReferenceOpenLoop._arrivals`` /
``._session`` are the bodies of the closed-loop ``Client.run`` and of
the open-loop generator's ``_arrivals`` / ``_session`` as they stood
before the one session driver (:mod:`repro.workload.driver`) replaced them, copied
literally — only the imports and the class statements around them
changed, and the response-time sink, which is the one
:meth:`~repro.obs.store.MeasurementStore.observe` per served visit the
program makes.  ``test_driver_oracle.py`` runs them beside the driver on the
same seed and demands identical simulations.  Do not "tidy" this file:
its value is that it is the old code.

The classes those bodies lived in are gone from the program (one
``LoadGenerator`` now runs both loops), so their scaffolding is copied
here from the last commit that had them: ``Client.__init__``, the old
``LoadGenerator``'s population and start-up, and the open-loop
generator's skeleton (including its ``_draw_gap``, which now reads the
Pareto and lognormal shapes from the module constants that replaced the
config's fields).  Two things are added, both
bookkeeping the old bodies cannot see: a client forwards each increment
of its counters to its generator's running total, in event order, as the
one generator counts; and each session drawn from a client's pattern is
counted as admitted.
"""

from __future__ import annotations

import math
from typing import Dict, Generator, List, Optional, Tuple

from repro.core.distribution import DeployedSystem
from repro.core.usage import UsagePattern
from repro.middleware.resilience import RETRYABLE_ERRORS, RmiTimeout
from repro.middleware.web import ServerUnavailable, WebRequest, http_get
from repro.obs.store import MeasurementStore
from repro.simnet.kernel import Environment, Event
from repro.simnet.rng import Streams
from repro.workload.generator import WorkloadConfig
from repro.workload.openloop import LOGNORMAL_SIGMA, PARETO_ALPHA, OpenLoopConfig

_REQUEST_FAULTS = (ServerUnavailable, RmiTimeout) + RETRYABLE_ERRORS


class _Total:
    """A client counter kept only as its generator's total.

    Reads give 0, so ``client.x += d`` hands the setter exactly ``d``,
    which is added to ``generator.x`` at the moment the client counts it.
    """

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, client, owner=None):
        return self if client is None else 0

    def __set__(self, client, value):
        generator = client.generator
        setattr(generator, self.name, getattr(generator, self.name) + value)


class _CountedPattern:
    """A client's usage pattern whose every session draw is one admission."""

    def __init__(self, pattern: UsagePattern, generator):
        self.pattern = pattern
        self.generator = generator

    def session(self, streams, session_index):
        self.generator.admitted += 1
        return self.pattern.session(streams, session_index)


class ReferenceLoadGenerator:
    """The old ``LoadGenerator``: builds and runs the client population."""

    def __init__(
        self,
        system: DeployedSystem,
        streams: Streams,
        browser_pattern: UsagePattern,
        writer_pattern: UsagePattern,
        config: Optional[WorkloadConfig] = None,
        writer_group_name: str = "buyer",
        store: Optional[MeasurementStore] = None,
    ):
        self.system = system
        self.streams = streams
        self.browser_pattern = browser_pattern
        self.writer_pattern = writer_pattern
        self.config = config or WorkloadConfig()
        self.writer_group_name = writer_group_name
        self.store = store or MeasurementStore(warmup=self.config.warmup_ms)
        self.clients: List[ReferenceClient] = []
        # The clients' counters, as running totals.
        self.requests_sent = 0
        self.sessions_completed = 0
        self.errors = 0
        self.failovers = 0
        self.think_ms = 0.0
        self.admitted = 0
        # What the availability snapshot reads; clients never drop.
        self.dropped_sessions = 0

    def _group_rate(self) -> float:
        groups = len(self.system.testbed.app_servers)
        return self.config.total_rate_per_s / groups

    def clients_per_group(self) -> Dict[str, int]:
        per_group = self._group_rate() * self.config.think_time_ms / 1000.0

        def count(fraction: float) -> int:
            return max(1, round(per_group * fraction)) if fraction > 0 else 0

        fraction = self.config.browser_fraction
        return {"browser": count(fraction), "writer": count(1.0 - fraction)}

    def build(self) -> List["ReferenceClient"]:
        if self.clients:
            return self.clients
        counts = self.clients_per_group()
        testbed = self.system.testbed
        end_time = self.config.duration_ms
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
                    machine = machines[index % len(machines)]
                    self.clients.append(
                        ReferenceClient(
                            self,
                            system=self.system,
                            store=self.store,
                            streams=self.streams,
                            client_node=machine,
                            group=group,
                            pattern=_CountedPattern(pattern, self),
                            think_time=self.config.think_time_ms,
                            start_offset=stagger_stream.uniform(
                                0, self.config.think_time_ms
                            ),
                            end_time=end_time,
                            client_id=len(self.clients) + 1,
                        )
                    )
        return self.clients

    def start(self, env: Environment) -> None:
        for client in self.build():
            env.process(client.run(env), name=f"client-{client.id}")

    def run(self, env: Environment) -> MeasurementStore:
        self.start(env)
        env.run()
        return self.store

    def total_requests(self) -> int:
        return self.requests_sent


class ReferenceClient:
    requests_sent = _Total()
    sessions_completed = _Total()
    errors = _Total()
    failovers = _Total()
    think_ms = _Total()

    def __init__(
        self,
        generator: ReferenceLoadGenerator,
        system: DeployedSystem,
        store: MeasurementStore,
        streams: Streams,
        client_node: str,
        group: str,
        pattern: UsagePattern,
        think_time: float,
        start_offset: float = 0.0,
        end_time: float = math.inf,
        client_id: int = 1,
    ):
        self.generator = generator
        self.id = client_id
        self.system = system
        self.store = store
        self.streams = streams
        self.client_node = client_node
        self.group = group
        self.pattern = pattern
        self.think_time = think_time
        self.start_offset = start_offset
        self.end_time = end_time
        self.requests_sent = 0
        self.sessions_completed = 0
        self.errors = 0
        self.failovers = 0
        self.think_ms = 0.0

    def run(self, env: Environment) -> Generator[Event, None, None]:
        """The client process: sessions back-to-back until ``end_time``."""
        if self.start_offset > 0:
            yield env.sleep(self.start_offset)
        session_index = 0
        while self.end_time is None or env.now < self.end_time:
            session_id = f"c{self.id}-s{session_index}"
            visits = self.pattern.session(self.streams, session_index)
            session_index += 1
            for visit in visits:
                if self.end_time is not None and env.now >= self.end_time:
                    return
                request = WebRequest(
                    page=visit.page,
                    params=dict(visit.params),
                    session_id=session_id,
                    client_node=self.client_node,
                )
                started = env.now
                # One page fetch with client-side failover: "client
                # requests can utilize several entry points into the
                # service" (§1) — when the local edge is down, fall back
                # to the main server after the connect timeout.  Session
                # state lives on the failed edge, so mid-session state is
                # lost, but browse pages keep working.  (Inlined rather
                # than a helper generator: one less frame per request and
                # one less delegation hop for every resume beneath it.)
                server = self.system.entry_server_for(self.client_node)
                session_broken = False
                try:
                    yield from http_get(
                        env, server, request, client_group=self.group
                    )
                    response_time = env.now - started
                except _REQUEST_FAULTS:
                    fallback = self.system.main
                    if fallback is server or not fallback.available:
                        response_time = None
                    else:
                        self.failovers += 1
                        try:
                            yield from http_get(
                                env, fallback, request, client_group=self.group
                            )
                            response_time = env.now - started
                        except _REQUEST_FAULTS:
                            response_time = None
                        except Exception:
                            # The fallback answered with an application
                            # error: conversational state (cart, bid
                            # drafts) lived on the faulted edge, so the
                            # replayed request is inconsistent there.
                            response_time = None
                            session_broken = True
                except Exception:
                    # The server itself answered with an application error
                    # (a 500): under faults, earlier lost visits leave the
                    # session's state inconsistent (e.g. committing a cart
                    # whose additions never landed).  Never reached in
                    # fault-free runs — every session is then consistent
                    # by construction.
                    response_time = None
                    session_broken = True
                if response_time is None:
                    # Both entry points down, or the session is broken:
                    # the visit is lost.
                    self.errors += 1
                    response_time = env.now - started
                else:
                    self.requests_sent += 1
                    self.store.observe(
                        env.now, self.group, visit.page, response_time
                    )
                # Soft delay: the think time absorbs the response time.
                remaining = self.think_time - response_time
                if remaining > 0:
                    self.think_ms += remaining
                    yield env.sleep(remaining)
                if session_broken:
                    # The user gives up on this session and starts a new
                    # one after the think time.
                    break
            self.sessions_completed += 1


class ReferenceOpenLoop:
    """The old open-loop generator: spawns independent sessions."""

    def __init__(
        self,
        system: DeployedSystem,
        streams: Streams,
        browser_pattern: UsagePattern,
        writer_pattern: UsagePattern,
        config: Optional[OpenLoopConfig] = None,
        writer_group_name: str = "buyer",
        store: Optional[MeasurementStore] = None,
    ):
        self.system = system
        self.streams = streams
        self.browser_pattern = browser_pattern
        self.writer_pattern = writer_pattern
        self.config = config or OpenLoopConfig()
        self.writer_group_name = writer_group_name
        self.store = store or MeasurementStore(warmup=self.config.warmup_ms)
        self.arrivals = 0
        self.admitted = 0
        self.dropped_sessions = 0
        self.completions = 0
        self.active = 0
        self.peak_active = 0
        self.requests_sent = 0
        self.errors = 0
        self.failovers = 0
        self.think_ms = 0.0
        self._targets: List[Tuple[str, str]] = []

    def _build_targets(self) -> List[Tuple[str, str]]:
        if self._targets:
            return self._targets
        testbed = self.system.testbed
        columns: List[List[Tuple[str, str]]] = []
        for server_name in testbed.app_servers:
            locality = "local" if server_name == testbed.main_server else "remote"
            columns.append(
                [(machine, locality) for machine in testbed.clients_of(server_name)]
            )
        depth = max(len(column) for column in columns)
        for index in range(depth):
            for column in columns:
                if index < len(column):
                    self._targets.append(column[index])
        return self._targets

    def _draw_gap(self, rng, mean: float) -> float:
        arrival = self.config.arrival
        if arrival == "poisson":
            return rng.expovariate(1.0 / mean)
        if arrival == "pareto":
            # paretovariate(a) - 1 has mean 1/(a-1) on [0, inf), so this
            # gap has mean ``mean`` with a heavy right tail and mass near
            # zero: bursty arrivals.
            alpha = PARETO_ALPHA
            return mean * (alpha - 1.0) * (rng.paretovariate(alpha) - 1.0)
        # lognormal: choose mu so the mean is exactly ``mean``.
        sigma = LOGNORMAL_SIGMA
        mu = math.log(mean) - 0.5 * sigma * sigma
        return rng.lognormvariate(mu, sigma)

    def start(self, env: Environment) -> None:
        self._build_targets()
        env.process(self._arrivals(env), name="open-loop-arrivals")

    def run(self, env: Environment) -> MeasurementStore:
        self.start(env)
        env.run()
        return self.store

    def total_requests(self) -> int:
        return self.requests_sent

    def _arrivals(self, env: Environment) -> Generator[Event, None, None]:
        config = self.config
        targets = self._build_targets()
        n_targets = len(targets)
        gap_rng = self.streams.get("openloop-arrivals")
        mix_random = self.streams.get("openloop-mix").random
        mean_gap = config.mean_gap_ms
        duration = config.duration_ms
        max_sessions = config.max_sessions
        index = 0
        while True:
            gap = self._draw_gap(gap_rng, mean_gap)
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
            machine, locality = targets[index % n_targets]
            index += 1
            if mix_random() < config.browser_fraction:
                kind, pattern = "browser", self.browser_pattern
            else:
                kind, pattern = self.writer_group_name, self.writer_pattern
            group = f"{locality}-{kind}"
            self.admitted += 1
            env.process(
                self._session(env, self.arrivals, machine, group, pattern),
                name=f"open-session-{self.arrivals}",
            )

    # -- one session --------------------------------------------------------
    def _session(
        self,
        env: Environment,
        session_index: int,
        machine: str,
        group: str,
        pattern: UsagePattern,
    ) -> Generator[Event, None, None]:
        self.active += 1
        if self.active > self.peak_active:
            self.peak_active = self.active
        think_rng = self.streams.get("openloop-think")
        mean_think = self.config.think_time_ms
        session_id = f"o{session_index}"
        try:
            visits = pattern.session(self.streams, session_index)
            last = len(visits) - 1
            for position, visit in enumerate(visits):
                request = WebRequest(
                    page=visit.page,
                    params=dict(visit.params),
                    session_id=session_id,
                    client_node=machine,
                )
                started = env.now
                # Same failover shape as the closed-loop Client: try the
                # local entry point, fall back to main on transport-level
                # faults, give the session up on application errors.
                server = self.system.entry_server_for(machine)
                session_broken = False
                try:
                    yield from http_get(env, server, request, client_group=group)
                    response_time = env.now - started
                except _REQUEST_FAULTS:
                    fallback = self.system.main
                    if fallback is server or not fallback.available:
                        response_time = None
                    else:
                        self.failovers += 1
                        try:
                            yield from http_get(
                                env, fallback, request, client_group=group
                            )
                            response_time = env.now - started
                        except _REQUEST_FAULTS:
                            response_time = None
                        except Exception:
                            response_time = None
                            session_broken = True
                except Exception:
                    response_time = None
                    session_broken = True
                if response_time is None:
                    self.errors += 1
                else:
                    self.requests_sent += 1
                    self.store.observe(env.now, group, visit.page, response_time)
                if session_broken:
                    break
                if position != last:
                    # Open loop uses the *full* think time: the arrival
                    # process owns the rate, so there is nothing for a
                    # soft delay to hold steady.  Truncated to whole
                    # milliseconds — the RUBiS client emulator schedules
                    # think times through Thread.sleep(ms) — which also
                    # lets the kernel batch same-instant wake-ups.
                    think = float(int(think_rng.expovariate(1.0 / mean_think)))
                    if think > 0.0:
                        self.think_ms += think
                        yield env.sleep(think)
        finally:
            self.active -= 1
            self.completions += 1
