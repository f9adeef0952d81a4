"""The paper's testbed topology.

Section 3.1: three application servers (one *main*, co-located with the
database; two *edge*) separated by an emulated WAN — 100 ms latency each
way, 100 Mbit/s maximum combined bandwidth — plus nine client machines,
three on each server's LAN.  The WAN is emulated by a software router;
here all wide-area traffic funnels through a ``router`` node whose access
link enforces the combined bandwidth cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from .kernel import Environment
from .network import Network

__all__ = [
    "TestbedConfig",
    "TopologyOverrides",
    "Testbed",
    "build_testbed",
    "MBIT_PER_S",
]

# 1 Mbit/s expressed in bytes per millisecond.
MBIT_PER_S = 1_000_000 / 8 / 1000.0


@dataclass
class TestbedConfig:
    """Knobs for the emulated wide-area testbed (defaults match the paper)."""

    __test__ = False  # not a pytest test class despite the Test* name

    wan_latency: float = 100.0  # ms one-way (paper: "100 ms latency each way")
    wan_bandwidth: float = 100 * MBIT_PER_S  # bytes/ms ("100 Mbit/s combined")
    lan_latency: float = 0.25  # ms one-way
    lan_bandwidth: float = 100 * MBIT_PER_S
    clients_per_group: int = 3
    server_cpus: int = 2  # dual-processor Pentium III workstations
    db_cpus: int = 2
    db_colocated: bool = False  # RUBiS tests ran MySQL on the main server
    edge_servers: int = 2

    def edge_names(self) -> Tuple[str, ...]:
        """The edge servers' node names, ``edge1`` .. ``edgeN``."""
        return tuple(f"edge{index + 1}" for index in range(self.edge_servers))


@dataclass(frozen=True)
class TopologyOverrides:
    """CLI-supplied deviations from an experiment's canned testbed config.

    ``None`` means "keep the experiment's calibrated value"; a set field
    replaces it.  Picklable, so it rides inside parallel cell tasks.  A
    value no testbed can be built from is a ``ValueError`` naming its
    field.
    """

    edges: Optional[int] = None
    wan_latency: Optional[float] = None
    clients_per_group: Optional[int] = None

    def __post_init__(self):
        for name in ("edges", "clients_per_group"):
            if getattr(self, name) is not None and getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.wan_latency is not None and not 0 <= self.wan_latency < math.inf:
            raise ValueError("wan_latency must be finite and >= 0")

    @property
    def empty(self) -> bool:
        return (
            self.edges is None
            and self.wan_latency is None
            and self.clients_per_group is None
        )

    def apply(self, config: TestbedConfig) -> TestbedConfig:
        """A new config with the non-``None`` overrides applied."""
        changes = {}
        if self.edges is not None:
            changes["edge_servers"] = int(self.edges)
        if self.wan_latency is not None:
            changes["wan_latency"] = float(self.wan_latency)
        if self.clients_per_group is not None:
            changes["clients_per_group"] = int(self.clients_per_group)
        return replace(config, **changes) if changes else config


@dataclass
class Testbed:
    """Handle to the built network plus well-known node names."""

    __test__ = False  # not a pytest test class despite the Test* name

    env: Environment
    network: Network
    config: TestbedConfig
    main_server: str = "main"
    db_server: str = "db"
    router: str = "router"
    edge_servers: List[str] = field(default_factory=list)
    client_nodes: Dict[str, List[str]] = field(default_factory=dict)

    @property
    def app_servers(self) -> List[str]:
        """All application-server node names, main first."""
        return [self.main_server] + list(self.edge_servers)

    def clients_of(self, server: str) -> List[str]:
        """The client machines co-located with ``server``'s LAN."""
        return self.client_nodes[server]

    def is_wide_area(self, a: str, b: str) -> bool:
        """True when the a<->b path crosses the emulated WAN."""
        if a == b:
            return False
        return self.network.path_latency(a, b) >= self.config.wan_latency


def build_testbed(env: Environment, config: TestbedConfig = None) -> Testbed:
    """Construct the section-3.1 testbed on a fresh :class:`Network`."""
    config = config or TestbedConfig()
    network = Network(env)

    network.add_node("main", cpus=config.server_cpus)
    router = network.add_node("router", cpus=1)

    if config.db_colocated:
        # MySQL on the main workstation (the RUBiS setup): the db "node"
        # is the same machine, so JDBC round trips are loopback-free.
        db_name = "main"
    else:
        network.add_node("db", cpus=config.db_cpus)
        db_name = "db"
        network.add_link("main", "db", config.lan_latency, config.lan_bandwidth, name="lan-main-db")

    # The router sits on the main site's LAN; its access link carries all
    # wide-area traffic and therefore enforces the combined bandwidth cap.
    network.add_link("main", "router", config.lan_latency, config.wan_bandwidth, name="lan-main-router")

    testbed = Testbed(env=env, network=network, config=config, db_server=db_name)

    for edge_name in config.edge_names():
        network.add_node(edge_name, cpus=config.server_cpus)
        network.add_link(
            edge_name,
            "router",
            config.wan_latency,
            config.wan_bandwidth,
            name=f"wan-{edge_name}",
        )
        testbed.edge_servers.append(edge_name)

    # Client machines: three per application server, on that server's LAN.
    for server in testbed.app_servers:
        group = []
        for index in range(config.clients_per_group):
            client_name = f"client-{server}-{index}"
            network.add_node(client_name, cpus=2)
            network.add_link(
                client_name,
                server,
                config.lan_latency,
                config.lan_bandwidth,
                name=f"lan-{client_name}",
            )
            group.append(client_name)
        testbed.client_nodes[server] = group

    return testbed
