"""The web tier: HTTP request handling, servlets, and HTTP sessions.

The paper's headline centralized-deployment number comes from here: a
page request without keep-alive costs a TCP handshake round trip plus a
request/response round trip, "approximately an extra 400 ms" across the
emulated WAN.  Servlet dispatch, HTTP-session lookup and page rendering
charge CPU on the serving node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import GeneratorType
from typing import Any, Dict, Generator, Optional, TYPE_CHECKING

from ..simnet.kernel import Environment, Event
from ..simnet.transport import ACK_SIZE, SYN_SIZE, ConnectionPool
from .context import InvocationContext, RequestInfo
from .descriptors import ComponentDescriptor, ComponentKind
from .ejb import BeanError, business_method

if TYPE_CHECKING:  # pragma: no cover
    from .server import AppServer

__all__ = [
    "WebRequest",
    "Response",
    "HttpSessionStore",
    "ServletContainer",
    "ServerUnavailable",
    "http_get",
    "CONNECT_TIMEOUT_MS",
]

# How long a client waits before concluding a server is down (a 2003-era
# TCP connect timeout).  Paid once per failed attempt before failover.
CONNECT_TIMEOUT_MS = 3_000.0


class ServerUnavailable(Exception):
    """Raised when the target application server is down."""

    def __init__(self, server_name: str):
        super().__init__(f"application server {server_name!r} is unavailable")
        self.server_name = server_name


@dataclass
class WebRequest:
    """One HTTP request as seen by a servlet."""

    page: str
    params: Dict[str, Any] = field(default_factory=dict)
    session_id: str = ""
    client_node: str = ""

    def param(self, name: str, default: Any = None) -> Any:
        return self.params.get(name, default)


@dataclass
class Response:
    """A generated page: size drives both render CPU and transfer time."""

    html_size: int
    status: int = 200
    data: Optional[dict] = None  # structured view of what was rendered (tests)

    def wire_size(self) -> int:
        return 280 + self.html_size  # headers + body


class HttpSessionStore:
    """Per-server HTTPSession map (``session_id -> attribute dict``).

    Session state lives on whichever server the client talks to —
    web-tier conversational state is edge-deployable exactly like
    stateful session beans (§2.2).
    """

    def __init__(self):
        self._sessions: Dict[str, Dict[str, Any]] = {}
        self.created = 0

    def get(self, session_id: str) -> Dict[str, Any]:
        session = self._sessions.get(session_id)
        if session is None:
            session = {}
            self._sessions[session_id] = session
            self.created += 1
        return session

    def discard(self, session_id: str) -> None:
        self._sessions.pop(session_id, None)

    def clear(self) -> None:
        """Drop every session (server-process crash); ``created`` survives."""
        self._sessions.clear()

    def __len__(self) -> int:
        return len(self._sessions)


class ServletContainer:
    """Holds one servlet instance and dispatches requests through it."""

    def __init__(self, server: Any, descriptor: ComponentDescriptor):
        if descriptor.kind != ComponentKind.SERVLET:
            raise BeanError(f"{descriptor.name!r} is not a servlet")
        self.server = server
        self.descriptor = descriptor
        self.name = descriptor.name
        self.instance = descriptor.impl()
        # The servlet's call plan: one instance, one entry point.
        self._handle, self._handle_is_generator = business_method(
            type(self.instance), "handle"
        )
        # Charges go straight to this server's CPUs (see BaseContainer).
        self._cpu_use = server.node.cpu.use

    def handle(
        self, ctx: InvocationContext, request: WebRequest
    ) -> Generator[Event, Any, Response]:
        costs = ctx.costs
        if costs.servlet_base:
            yield from self._cpu_use(costs.servlet_base)
        if costs.servlet_io_wait > 0:
            # Stack latency that does not occupy a CPU (see MiddlewareCosts).
            yield ctx.env.sleep(costs.servlet_io_wait)
        response = self._handle(self.instance, ctx, request)
        if self._handle_is_generator or response.__class__ is GeneratorType:
            response = yield from response
        if response.__class__ is not Response and not isinstance(response, Response):
            raise BeanError(
                f"servlet {self.name!r} returned {type(response).__name__}, "
                "expected Response"
            )
        # Rendering cost scales with the generated page size.
        work = costs.page_render_per_kb * response.html_size / 1024.0
        if work:
            yield from self._cpu_use(work)
        return response


# ---------------------------------------------------------------------------
# Client side
# ---------------------------------------------------------------------------


def http_get(
    env: Environment,
    server: "AppServer",
    request: WebRequest,
    client_group: str = "local",
) -> Generator[Event, Any, Response]:
    """Issue one HTTP GET from ``request.client_node`` to ``server``.

    Without keep-alive (the paper's setting) this opens a fresh TCP
    connection per request: handshake round trip + request round trip.
    With keep-alive, connections are pooled per client node.
    """
    if not server.available:
        # The connection attempt hangs until the client-side timeout.
        yield env.sleep(CONNECT_TIMEOUT_MS)
        raise ServerUnavailable(server.name)
    network = server.network
    costs = server.costs
    client = request.client_node
    node = server.node.name
    # Per-session span sampling: the decision is a pure hash of the
    # session id (see SpanRecorder.sample), so either *every* request of
    # a session is traced or none is — partial trees would break the
    # design-rule tree walk — and the same sessions are kept in any
    # process.  An unsampled request carries no span recorder at all,
    # which keeps its per-call cost identical to spans-disabled runs.
    trace = server.trace
    if trace is not None and not trace.sample(request.session_id):
        trace = None
    ctx = InvocationContext(
        env,
        server,
        RequestInfo(request.page, client_group, request.session_id, client),
        costs,
        trace,
    )
    # Root span of the request's causal tree: everything the page does —
    # servlet work, RMI, JDBC, JMS — nests under it via ctx.span_id.
    root_span = None
    if trace is not None:
        root_span = ctx.start_span(
            "http",
            "GET " + request.page,
            node=client or node,
            wide_area=server.is_wide_area(client),
        )
        ctx.span_id = root_span.id  # ctx is fresh; safe to bind in place

    try:
        if costs.http_keep_alive:
            pool = network.http_pool
            if pool is None:
                pool = network.http_pool = ConnectionPool(network, kind="http")
            response = yield from pool.exchange(
                client,
                node,
                costs.http_request_size,
                lambda: server.serve(ctx, request),
                response_size_of=Response.wire_size,
            )
            return response

        # A connection opened for one exchange and closed after it is its
        # four messages — SYN, SYN-ACK (the final ACK rides on the
        # request), request, response — sent from this frame, so every
        # event of the page resumes no transport frame on its way down.
        transfer = network.transfer
        yield from transfer(client, node, SYN_SIZE, kind="http")
        yield from transfer(node, client, ACK_SIZE, kind="http")
        yield from transfer(client, node, costs.http_request_size, kind="http")
        response = yield from server.serve(ctx, request)
        yield from transfer(node, client, response.wire_size(), kind="http")
        return response
    finally:
        if root_span is not None:
            ctx.finish_span(root_span)
