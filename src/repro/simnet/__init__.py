"""Discrete-event simulation substrate: kernel, network, transport, testbed.

This package is self-contained (no dependency on the middleware or the
applications).  It carries what the paper's testbed needs and no more:
timed waits, CPU holds and joins on events in the kernel, and links with
latency and shared bandwidth between the workstations of the testbed.
"""

from .kernel import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Process,
    SimulationError,
    Timeout,
)
from .network import Link, Network, NetworkError, Node
from .primitives import Resource
from .rng import Streams
from .router import Hop, PacketLoss
from .topology import (
    MBIT_PER_S,
    Testbed,
    TestbedConfig,
    TopologyOverrides,
    build_testbed,
)
from .transport import ACK_SIZE, SYN_SIZE, Connection, ConnectionPool, TransportError

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Process",
    "SimulationError",
    "Timeout",
    "Link",
    "Network",
    "NetworkError",
    "Node",
    "Resource",
    "Streams",
    "Hop",
    "PacketLoss",
    "MBIT_PER_S",
    "Testbed",
    "TestbedConfig",
    "TopologyOverrides",
    "build_testbed",
    "ACK_SIZE",
    "SYN_SIZE",
    "Connection",
    "ConnectionPool",
    "TransportError",
]
