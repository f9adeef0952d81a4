"""JDBC-style remote database access over the simulated network.

This is where the paper's "verbose communication with the database
server" comes from:

* opening a physical connection costs a TCP handshake plus an
  authentication round trip (amortized by the :class:`DataSource` pool);
* every statement costs one round trip;
* traversing a large result set costs an extra round trip per fetch
  batch beyond the first (``fetch_size`` rows per batch) — the classic
  cursor-traversal cost that makes direct web-tier JDBC catastrophic
  across a WAN;
* explicit ``commit``/``rollback`` each cost a round trip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional, Tuple, Union

from ..simnet.kernel import Event
from ..simnet.network import Network
from ..simnet.transport import Connection
from .executor import ResultSet
from .server import DatabaseServer, DbSession, result_wire_size
from .sql import Statement

__all__ = ["JdbcConfig", "DataSource", "JdbcConnection", "JdbcError"]

AUTH_REQUEST_SIZE = 180
AUTH_RESPONSE_SIZE = 120
STATEMENT_BASE_SIZE = 220
COMMIT_MESSAGE_SIZE = 90
FETCH_REQUEST_SIZE = 110


class JdbcError(Exception):
    """Raised on driver misuse (statement on a closed connection, ...)."""


@dataclass
class JdbcConfig:
    """Driver behaviour knobs.

    ``pooled=False`` models the original Pet Store web tier, which opened
    and recycled database connections per request.
    """

    fetch_size: int = 20
    pooled: bool = True


class JdbcConnection:
    """A logical database connection bound to a server-side session."""

    def __init__(self, source: "DataSource", transport: Connection, session: DbSession):
        self.source = source
        self.transport = transport
        self.session = session
        self.closed = False

    # -- statements -----------------------------------------------------------
    def execute(
        self,
        statement: Union[str, Statement],
        params: Tuple[Any, ...] = (),
    ) -> Generator[Event, Any, ResultSet]:
        """One statement: a round trip plus per-batch fetch round trips."""
        if self.closed:
            raise JdbcError("execute on a closed connection")
        server = self.source.server
        network = self.source.network
        fetch_size = self.source.config.fetch_size
        request_size = STATEMENT_BASE_SIZE + _params_size(statement, params)
        # Sized once, when the first batch is shipped: every batch of the
        # cursor costs its row count times the same mean row size.
        row_size = 0

        def handler():
            result = yield from server.execute(self.session, statement, params)
            return result

        def first_batch_size(result: ResultSet) -> int:
            nonlocal row_size
            row_size = _mean_row_size(result)
            return 64 + min(len(result.rows), fetch_size) * row_size

        result = yield from self.transport.request(
            request_size, handler, response_size_of=first_batch_size
        )
        # Cursor traversal: each further batch is its own round trip.
        remaining = max(0, len(result.rows) - fetch_size)
        while remaining > 0:
            batch = min(remaining, fetch_size)
            yield from network.transfer(
                self.transport.client, self.transport.server, FETCH_REQUEST_SIZE, kind="jdbc"
            )
            yield from network.transfer(
                self.transport.server,
                self.transport.client,
                64 + batch * row_size,
                kind="jdbc",
            )
            remaining -= batch
        return result

    # -- transactions -----------------------------------------------------------
    def begin(self, read_only: bool = False) -> None:
        """Start an explicit transaction (deferred: no round trip until work)."""
        self.source.server.begin(self.session, read_only=read_only)

    def commit(self) -> Generator[Event, Any, None]:
        if self.closed:
            raise JdbcError("commit on a closed connection")

        def handler():
            yield from self.source.server.commit(self.session)

        yield from self.transport.request(
            COMMIT_MESSAGE_SIZE, handler, response_size=COMMIT_MESSAGE_SIZE
        )

    def rollback(self) -> Generator[Event, Any, None]:
        if self.closed:
            raise JdbcError("rollback on a closed connection")

        def handler():
            yield from self.source.server.rollback(self.session)

        yield from self.transport.request(
            COMMIT_MESSAGE_SIZE, handler, response_size=COMMIT_MESSAGE_SIZE
        )

    def close(self) -> None:
        """Return to the pool (or tear down when pooling is off)."""
        if self.closed:
            return
        if self.session.in_transaction:
            raise JdbcError("close with an open transaction; commit or rollback first")
        self.closed = True
        self.source._release(self)


class DataSource:
    """Factory/pool of connections from one client node to the DB server."""

    def __init__(
        self,
        network: Network,
        client_node: str,
        server: DatabaseServer,
        config: Optional[JdbcConfig] = None,
    ):
        self.network = network
        self.client_node = client_node
        self.server = server
        self.config = config or JdbcConfig()
        self._idle_sessions: list = []
        self.connections_opened = 0

    def connect(self) -> Generator[Event, Any, JdbcConnection]:
        """Obtain a connection; pays handshake+auth only for new physical ones."""
        if self.config.pooled and self._idle_sessions:
            transport, session = self._idle_sessions.pop()
            return JdbcConnection(self, transport, session)
        transport = Connection(self.network, self.client_node, self.server.node.name, kind="jdbc")
        yield from transport.open()
        # Authentication exchange.
        yield from self.network.transfer(
            self.client_node, self.server.node.name, AUTH_REQUEST_SIZE, kind="jdbc"
        )
        yield from self.network.transfer(
            self.server.node.name, self.client_node, AUTH_RESPONSE_SIZE, kind="jdbc"
        )
        self.connections_opened += 1
        session = self.server.open_session()
        return JdbcConnection(self, transport, session)

    def _release(self, connection: JdbcConnection) -> None:
        if self.config.pooled:
            self._idle_sessions.append((connection.transport, connection.session))
        else:
            connection.transport.close()


def _params_size(statement: Union[str, Statement], params: Tuple[Any, ...]) -> int:
    size = len(statement) if isinstance(statement, str) else 80
    for value in params:
        if isinstance(value, str):
            size += len(value)
        else:
            size += 8
    return size


def _mean_row_size(result: ResultSet) -> int:
    if not result.rows:
        return 16
    return max(16, (result_wire_size(result) - 64) // len(result.rows))
