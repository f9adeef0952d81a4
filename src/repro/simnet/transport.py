"""Connection-oriented transport on top of :class:`~repro.simnet.network.Network`.

Models the TCP-level behaviour that drives the paper's headline numbers:

* Opening a connection costs one round trip (SYN / SYN-ACK).  The paper:
  "accessing the service from a WAN link incurs approximately an extra
  400 ms, which is due to two round trips: one for TCP handshaking and
  another for the HTTP request (we did not use keep-alive HTTP
  connections)".
* A request/response exchange on an open connection costs one round trip
  plus transmission time plus whatever the server-side handler does.
* Connection pools model JDBC connection reuse and RMI's persistent
  sockets.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Generator, Optional, Tuple

from .kernel import Environment, Event
from .network import Network

__all__ = [
    "Connection",
    "ConnectionPool",
    "TransportError",
    "NodeUnavailable",
    "SYN_SIZE",
    "ACK_SIZE",
]

SYN_SIZE = 64
ACK_SIZE = 64


class TransportError(Exception):
    """Raised on misuse of a connection (e.g. request on a closed one)."""


class NodeUnavailable(TransportError):
    """Raised when a pool refuses to connect to a crashed node."""


class Connection:
    """A bidirectional virtual circuit between two nodes.

    The connection is directional in naming only: ``client`` opened it
    towards ``server``.  Either side may be the sender of a given
    exchange, but in this repository exchanges always originate at the
    client side.
    """

    def __init__(self, network: Network, client: str, server: str, kind: str = "tcp"):
        self.network = network
        self.env: Environment = network.env
        self.client = client
        self.server = server
        self.kind = kind
        self.is_open = False

    def _describe(self) -> str:
        return f"{self.kind} connection {self.client}->{self.server}"

    def open(self) -> Generator[Event, None, "Connection"]:
        """Three-way handshake: one full round trip before data can flow."""
        if self.is_open:
            raise TransportError(f"{self._describe()} is already open")
        yield from self.network.transfer(self.client, self.server, SYN_SIZE, kind=self.kind)
        yield from self.network.transfer(self.server, self.client, ACK_SIZE, kind=self.kind)
        # The final ACK piggybacks on the first data segment; no extra wait.
        self.is_open = True
        return self

    def close(self) -> None:
        """Tear down (FIN exchange is not awaited by the application)."""
        self.is_open = False

    def request(
        self,
        request_size: int,
        handler: Callable[[], Generator[Event, Any, Any]],
        response_size: Optional[int] = None,
        response_size_of: Optional[Callable[[Any], int]] = None,
    ) -> Generator[Event, Any, Any]:
        """One request/response exchange: request transfer, handler, response.

        ``handler`` is a zero-argument callable returning a generator that
        performs the server-side work (CPU, nested calls, ...).  Its return
        value becomes this generator's return value.  The response size is
        either fixed (``response_size``) or derived from the handler result
        (``response_size_of``).
        """
        if not self.is_open:
            raise TransportError(f"request on a closed {self._describe()}")
        yield from self.network.transfer(self.client, self.server, request_size, kind=self.kind)
        result = yield from handler()
        if response_size_of is not None:
            size = response_size_of(result)
        elif response_size is not None:
            size = response_size
        else:
            raise TransportError(f"response size unspecified on {self._describe()}")
        yield from self.network.transfer(self.server, self.client, size, kind=self.kind)
        return result


class ConnectionPool:
    """A per-(client, server) pool of open connections.

    Used by the JDBC driver (database connection pooling) and the RMI
    transport (persistent sockets).  ``checkout`` opens a new connection —
    paying the handshake — only when the pool is empty.
    """

    def __init__(
        self,
        network: Network,
        kind: str,
        max_per_pair: int = 32,
        availability: Optional[Callable[[str], bool]] = None,
    ):
        if max_per_pair <= 0:
            raise ValueError("max_per_pair must be positive")
        self.network = network
        self.kind = kind
        self.max_per_pair = max_per_pair
        # Optional liveness oracle (``server name -> up?``): when set, the
        # pool refuses connections to crashed nodes up front instead of
        # failing mid-exchange (see AppServer.crash).
        self.availability = availability
        self._idle: Dict[Tuple[str, str], Deque[Connection]] = {}
        self.opened = 0
        self.reused = 0
        self.refused = 0

    def checkout(self, client: str, server: str) -> Generator[Event, None, Connection]:
        """Borrow an open connection, creating one if necessary."""
        if self.availability is not None and not self.availability(server):
            self.refused += 1
            raise NodeUnavailable(
                f"{self.kind} connection {client}->{server} refused: "
                f"node {server} is down"
            )
        idle = self._idle.setdefault((client, server), deque())
        if idle:
            self.reused += 1
            return idle.popleft()
        connection = Connection(self.network, client, server, kind=self.kind)
        yield from connection.open()
        self.opened += 1
        return connection

    def checkin(self, connection: Connection) -> None:
        """Return a connection for reuse (closed if the pool is full)."""
        if not connection.is_open:
            return
        idle = self._idle.setdefault((connection.client, connection.server), deque())
        if len(idle) >= self.max_per_pair:
            connection.close()
        else:
            idle.append(connection)

    def drop_connections_to(self, server: str) -> int:
        """Close idle connections to ``server`` (its process died)."""
        dropped = 0
        for (_client, pooled_server), idle in self._idle.items():
            if pooled_server != server:
                continue
            while idle:
                idle.popleft().close()
                dropped += 1
        return dropped

    def exchange(
        self,
        client: str,
        server: str,
        request_size: int,
        handler: Callable[[], Generator[Event, Any, Any]],
        response_size: Optional[int] = None,
        response_size_of: Optional[Callable[[Any], int]] = None,
    ) -> Generator[Event, Any, Any]:
        """Checkout, one request/response, checkin.  The common pattern."""
        connection = yield from self.checkout(client, server)
        try:
            result = yield from connection.request(
                request_size,
                handler,
                response_size=response_size,
                response_size_of=response_size_of,
            )
        except BaseException:
            # A fault mid-exchange leaves the socket in an unknown state;
            # close it so the pool never hands out a broken connection.
            connection.close()
            raise
        finally:
            self.checkin(connection)  # no-op when the connection is closed
        return result
