"""Discrete-event simulation substrate: kernel, network, transport, testbed.

This package is self-contained (no dependency on the middleware or the
applications) and reusable for any latency/bandwidth-dominated systems
simulation.
"""

from .kernel import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from .monitor import CallRecord, PageStats, ResponseTimeMonitor, Trace
from .network import Link, Network, NetworkError, Node
from .primitives import Latch, Resource, Semaphore, Store
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
    "Interrupt",
    "Process",
    "SimulationError",
    "Timeout",
    "CallRecord",
    "PageStats",
    "ResponseTimeMonitor",
    "Trace",
    "Link",
    "Network",
    "NetworkError",
    "Node",
    "Latch",
    "Resource",
    "Semaphore",
    "Store",
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
