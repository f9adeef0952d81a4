"""The load generator: the paper's client population (§3.3).

"In all of our tests, we use a combined client load of 30 web page
requests per second, coming from a mixture of 80% browsers and 20%
buyers/bidders, equally divided between all client machines (10 HTTP
requests per second coming from each of the three client groups)."

Each client issues one request per ``think_time`` on average (soft
delays make the rate response-time independent), so a group of
``rate x think_time`` clients produces ``rate`` requests/second.
Client start times are staggered across one think-time interval to
avoid lockstep arrivals.

The generator only builds and starts the population; what a client does
is :func:`~repro.workload.driver.drive_sessions` under the closed-loop
policy (:mod:`.client`).  Its reporting surface is the one
:class:`~repro.workload.openloop.OpenLoopGenerator` has.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.distribution import DeployedSystem
from ..core.usage import UsagePattern
from ..simnet.kernel import Environment
from ..simnet.monitor import ResponseTimeMonitor
from ..simnet.rng import Streams
from .client import Client
from .driver import workload_counters

__all__ = ["WorkloadConfig", "LoadGenerator"]


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
        if not 0.0 <= self.browser_fraction <= 1.0:
            raise ValueError("browser_fraction must be in [0, 1]")
        if self.total_rate_per_s <= 0 or self.think_time_ms <= 0:
            raise ValueError("rate and think time must be positive")
        if self.duration_ms <= 0 or self.warmup_ms < 0:
            raise ValueError("duration must be positive and warmup non-negative")
        if self.warmup_ms >= self.duration_ms:
            # Clients stop sending at duration_ms, so nothing would be
            # observed.  (The open loop differs: its sessions drain past
            # duration_ms and are measured.)
            raise ValueError("warmup must be shorter than duration")


class LoadGenerator:
    """Builds and runs the full client population against a deployment."""

    def __init__(
        self,
        system: DeployedSystem,
        streams: Streams,
        browser_pattern: UsagePattern,
        writer_pattern: UsagePattern,
        config: Optional[WorkloadConfig] = None,
        writer_group_name: str = "buyer",
    ):
        self.system = system
        self.streams = streams
        self.browser_pattern = browser_pattern
        self.writer_pattern = writer_pattern
        self.config = config or WorkloadConfig()
        self.writer_group_name = writer_group_name
        self.monitor = ResponseTimeMonitor(warmup=self.config.warmup_ms)
        #: Optional TimeSeriesRecorder fanned out to every client at
        #: start() time (the clients stream responses into it directly).
        self.timeseries = None
        self.clients: List[Client] = []

    # -- population maths ---------------------------------------------------
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

    # -- assembly -----------------------------------------------------------
    def build(self) -> List[Client]:
        """Create the client population (idempotent)."""
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
                        Client(
                            system=self.system,
                            monitor=self.monitor,
                            streams=self.streams,
                            client_node=machine,
                            group=group,
                            pattern=pattern,
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
        """Register every client as a simulation process."""
        for client in self.build():
            client.timeseries = self.timeseries
            env.process(client.run(env), name=f"client-{client.id}")

    def run(self, env: Environment) -> ResponseTimeMonitor:
        """Start the population and run the simulation to completion."""
        self.start(env)
        env.run()
        return self.monitor

    # -- reporting ------------------------------------------------------------
    # The counter surface OpenLoopGenerator has, summed over the clients
    # (who stay the counter owners).
    @property
    def requests_sent(self) -> int:
        return sum(client.requests_sent for client in self.clients)

    @property
    def errors(self) -> int:
        return sum(client.errors for client in self.clients)

    @property
    def failovers(self) -> int:
        return sum(client.failovers for client in self.clients)

    @property
    def think_ms(self) -> float:
        return sum(client.think_ms for client in self.clients)

    @property
    def error_kinds(self) -> Dict[str, int]:
        """Lost visits by exception class name, over all clients."""
        kinds: Counter = Counter()
        for client in self.clients:
            kinds.update(client.error_kinds)
        return dict(kinds)

    def total_requests(self) -> int:
        return self.requests_sent

    def counters(self) -> Dict[str, float]:
        """Cumulative workload counters, by metric name."""
        return workload_counters(self)

    def achieved_rate_per_s(self) -> float:
        if not self.clients:
            return 0.0
        return self.total_requests() / (self.config.duration_ms / 1000.0)
