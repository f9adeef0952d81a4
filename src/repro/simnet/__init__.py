"""Discrete-event simulation substrate: kernel, network, transport, testbed.

This package is self-contained (no dependency on the middleware or the
applications).  It carries what the paper's testbed needs and no more:
timed waits, CPU holds and joins on events in the kernel, and links with
latency and shared bandwidth between the workstations of the testbed.
"""

from .. import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "AllOf": "kernel",
    "AnyOf": "kernel",
    "Environment": "kernel",
    "Event": "kernel",
    "Process": "kernel",
    "SimulationError": "kernel",
    "Timeout": "kernel",
    "Link": "network",
    "Network": "network",
    "NetworkError": "network",
    "Node": "network",
    "Resource": "primitives",
    "Streams": "rng",
    "Hop": "router",
    "PacketLoss": "router",
    "MBIT_PER_S": "topology",
    "Testbed": "topology",
    "TestbedConfig": "topology",
    "TopologyOverrides": "topology",
    "build_testbed": "topology",
    "ACK_SIZE": "transport",
    "SYN_SIZE": "transport",
    "Connection": "transport",
    "ConnectionPool": "transport",
    "TransportError": "transport",
})
