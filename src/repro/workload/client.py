"""Emulated clients (§3.3).

Each client repeatedly runs sessions of its usage pattern with *soft
delays*: "instead of waiting a predefined DELAY time interval after
receiving response from the previous request, the client waits for only
DELAY - response time.  So effectively DELAY becomes the time interval
between sending requests, which allowed us to simulate steady client
load independent of response times."

A client is the closed-loop *arrival policy* of the one session driver
(:mod:`.driver`): it supplies the sessions (back-to-back until
``end_time``), the soft-delay think rule, and owns its counters; the
request/failover loop itself lives in the driver.
"""

from __future__ import annotations

import math
from typing import Dict, Generator, Iterator, List, Tuple

from ..core.distribution import DeployedSystem
from ..core.usage import PageVisit, UsagePattern
from ..simnet.kernel import Environment, Event
from ..simnet.monitor import ResponseTimeMonitor
from ..simnet.rng import Streams
from .driver import drive_sessions

__all__ = ["Client"]


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
        end_time: float = math.inf,
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
        # Lost visits by the class name of the exception that lost them.
        self.error_kinds: Dict[str, int] = {}
        # Optional TimeSeriesRecorder, set by LoadGenerator.start().
        self.timeseries = None

    def _sessions(self, env: Environment) -> Iterator[Tuple[str, List[PageVisit]]]:
        """``c{id}-s{n}`` sessions back-to-back until ``end_time``.

        A session is drawn when the driver asks for it and counted as
        completed when the driver asks for the next; one cut short by
        the deadline is closed mid-yield and never counted.
        """
        index = 0
        while env.now < self.end_time:
            yield f"c{self.id}-s{index}", self.pattern.session(self.streams, index)
            self.sessions_completed += 1
            index += 1

    def _soft_delay(self, elapsed: float, last: bool, broken: bool) -> float:
        """Soft delay: the think time absorbs the response time (of a
        lost visit too), so a user who gives a broken session up starts
        the next one think-time after the failed request was sent."""
        return self.think_time - elapsed

    def run(self, env: Environment) -> Generator[Event, None, None]:
        """The client process: the session driver under the soft-delay policy."""
        return drive_sessions(
            env,
            self,
            self.client_node,
            self.group,
            self._sessions(env),
            self._soft_delay,
            self.end_time,
            self.start_offset,
        )
