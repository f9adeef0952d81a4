"""Emulated clients (§3.3).

Each client repeatedly runs sessions of its usage pattern with *soft
delays*: "instead of waiting a predefined DELAY time interval after
receiving response from the previous request, the client waits for only
DELAY - response time.  So effectively DELAY becomes the time interval
between sending requests, which allowed us to simulate steady client
load independent of response times."
"""

from __future__ import annotations

from typing import Generator, Optional

from ..core.distribution import DeployedSystem
from ..core.usage import UsagePattern
from ..middleware.resilience import RETRYABLE_ERRORS, RmiTimeout
from ..middleware.web import ServerUnavailable, WebRequest, http_get
from ..simnet.kernel import Environment, Event
from ..simnet.monitor import ResponseTimeMonitor
from ..simnet.rng import Streams

__all__ = ["Client"]

# Failures a browser reacts to by trying the other entry point: the
# server refusing connections, an RMI call beneath the page timing out,
# or the transport layer itself faulting mid-request.
_REQUEST_FAULTS = (ServerUnavailable, RmiTimeout) + RETRYABLE_ERRORS


class Client:
    """One emulated user bound to a client machine and a usage pattern."""

    def __init__(
        self,
        system: DeployedSystem,
        monitor: ResponseTimeMonitor,
        streams: Streams,
        client_node: str,
        group: str,
        pattern: UsagePattern,
        think_time: float,
        start_offset: float = 0.0,
        end_time: Optional[float] = None,
        client_id: int = 1,
    ):
        # Position in the owning LoadGenerator's population (1..N in
        # build order): ``c{id}-s{n}`` session ids feed the span sampler,
        # so they must not depend on what else this process ran.
        self.id = client_id
        self.system = system
        self.monitor = monitor
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
        # Optional TimeSeriesRecorder, set by LoadGenerator.start().
        self.timeseries = None

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

