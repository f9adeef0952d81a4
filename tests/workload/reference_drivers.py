"""The parent commit's two session loops, kept as oracles.

``ReferenceClient.run`` and ``ReferenceOpenLoopGenerator._arrivals`` /
``._session`` are the bodies of ``Client.run`` and
``OpenLoopGenerator._arrivals`` / ``._session`` as they stood before the
one session driver (:mod:`repro.workload.driver`) replaced them, copied
literally — only the imports and the class statements around them
changed.  ``test_driver_oracle.py`` runs them beside the driver on the
same seed and demands identical simulations.  Do not "tidy" this file:
its value is that it is the old code.
"""

from __future__ import annotations

from typing import Generator

from repro.core.usage import UsagePattern
from repro.middleware.resilience import RETRYABLE_ERRORS, RmiTimeout
from repro.middleware.web import ServerUnavailable, WebRequest, http_get
from repro.simnet.kernel import Environment, Event
from repro.workload.client import Client
from repro.workload.openloop import OpenLoopGenerator

_REQUEST_FAULTS = (ServerUnavailable, RmiTimeout) + RETRYABLE_ERRORS


class ReferenceClient(Client):
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
                    self.monitor.observe(
                        env.now, self.group, visit.page, response_time
                    )
                    ts = self.timeseries
                    if ts is not None:
                        ts.observe_response(env.now, visit.page, response_time)
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


class ReferenceOpenLoopGenerator(OpenLoopGenerator):
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
                    self.monitor.observe(env.now, group, visit.page, response_time)
                    ts = self.timeseries
                    if ts is not None:
                        ts.observe_response(env.now, visit.page, response_time)
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
