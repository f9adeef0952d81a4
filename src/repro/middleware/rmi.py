"""Component references and the RMI invocation fabric.

A :class:`LocalRef` dispatches through the in-VM container (cheap CPU
cost); a :class:`RemoteRef` performs a marshalled network round trip plus
the RMI stack's documented overheads — first-use stub-creation round
trip, and amortized distributed-garbage-collection traffic ("RMI can
require more than one round trip for a single method invocation ...
mainly due to ping packets and distributed garbage collection", §4.2).

Both expose the same ``call``/``entity``/``find`` surface, so caller code
is placement-oblivious.
"""

from __future__ import annotations

from typing import Any, Generator, TYPE_CHECKING

from ..simnet.kernel import Event
from .context import InvocationContext
from .descriptors import ComponentDescriptor
from .marshalling import call_size, result_size
from .resilience import RETRYABLE_ERRORS, RmiTimeout, backoff_delay

if TYPE_CHECKING:  # pragma: no cover
    from .server import AppServer

__all__ = ["ComponentRef", "LocalRef", "RemoteRef", "BoundEntityRef", "AccessError"]


class AccessError(Exception):
    """Raised when a component without a remote interface is called remotely."""


class ComponentRef:
    """Common reference surface for local and remote components."""

    descriptor: ComponentDescriptor
    is_remote: bool  # fixed by the kind of reference

    def call(
        self, ctx: InvocationContext, method: str, *args: Any, identity: Any = None
    ) -> Generator[Event, Any, Any]:
        raise NotImplementedError

    def entity(self, primary_key: Any) -> "BoundEntityRef":
        """A reference bound to one entity identity (EJBObject analogue)."""
        return BoundEntityRef(self, primary_key)

    def find(
        self, ctx: InvocationContext, finder: str, *args: Any
    ) -> Generator[Event, Any, Any]:
        """Invoke a home finder method (entity homes only)."""
        return self.call(ctx, finder, *args)


class BoundEntityRef:
    """An entity reference with its primary key applied."""

    def __init__(self, home: ComponentRef, primary_key: Any):
        self.home = home
        self.primary_key = primary_key

    def call(
        self, ctx: InvocationContext, method: str, *args: Any
    ) -> Generator[Event, Any, Any]:
        return self.home.call(ctx, method, *args, identity=self.primary_key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.home.descriptor.name}[{self.primary_key!r}]>"


class LocalRef(ComponentRef):
    """In-VM reference: dispatches straight into the local container."""

    is_remote = False

    def __init__(self, container: Any):
        self.container = container
        self.descriptor = container.descriptor
        self._cpu_use = container._cpu_use

    def call(
        self, ctx: InvocationContext, method: str, *args: Any, identity: Any = None
    ) -> Generator[Event, Any, Any]:
        span = None
        callee_ctx = ctx
        if ctx.trace is not None:
            name = self.descriptor.name
            span = ctx.start_span("invoke", f"{name}.{method}", target=name, method=method)
            callee_ctx = ctx.in_span(span)
        try:
            work = ctx.costs.local_call
            if work:
                yield from self._cpu_use(work)
            result = yield from self.container.invoke(callee_ctx, method, args, identity)
            return result
        finally:
            if span is not None:
                ctx.finish_span(span)


class RemoteRef(ComponentRef):
    """RMI stub: marshals the call to the component's server.

    The callee executes under a fresh context bound to the target server
    (transactions do not span the wire — there is no WAN 2PC in the
    paper's deployments).  What the pair of servers decides — the route's
    end points, whether it is wide-area, whether the component may be
    called remotely at all — is recorded when the stub is made.
    """

    is_remote = True

    def __init__(self, source_server: "AppServer", target_server: "AppServer", container: Any):
        self.source_server = source_server
        self.target_server = target_server
        self.container = container
        self.descriptor = container.descriptor
        self._stub_created = False
        self._network = source_server.network
        self._src = source_server.node.name
        self._dst = target_server.node.name
        self._wide_area: Any = None  # a span label: asked once, by the first traced call
        self._remote_interface = self.descriptor.remote_interface

    def call(
        self, ctx: InvocationContext, method: str, *args: Any, identity: Any = None
    ) -> Generator[Event, Any, Any]:
        if not self._remote_interface:
            raise AccessError(
                f"component {self.descriptor.name!r} exposes only a local "
                f"interface but was invoked from {self.source_server.name} "
                f"against {self.target_server.name} (design rule R1)"
            )
        costs = ctx.costs
        env = ctx.env
        start = env.now
        span = None
        if ctx.trace is not None:
            if self._wide_area is None:
                self._wide_area = self.source_server.is_wide_area(self._dst)
            name = self.descriptor.name
            span = ctx.start_span(
                "rmi", f"{name}.{method}", wide_area=self._wide_area,
                target=name, method=method,
            )

        marshal_args = args if identity is None else args + (identity,)
        request_bytes = call_size(
            costs.rmi_marshal_base, costs.rmi_marshal_per_arg, method, marshal_args
        )
        network, src, dst = self._network, self._src, self._dst
        # Deadline-based timeout with capped exponential-backoff retries.
        # The deadline is pure arithmetic — no race events, no pending
        # timeouts — so a call that never faults schedules exactly the
        # same kernel events as before the resilience layer existed.
        deadline = start + costs.rmi_timeout_ms
        attempt = 0
        try:
            while True:
                attempt += 1
                try:
                    # One marshalled round trip, in this frame: the callee's
                    # events resume no stub frame on their way down.
                    if not self._stub_created:
                        # First use of the remote stub: an extra round trip to
                        # create it (the paper pools stubs client-side).
                        yield from network.transfer(src, dst, 96, kind="rmi")
                        yield from network.transfer(dst, src, 512, kind="rmi")
                        self._stub_created = True

                    yield from ctx.cpu(costs.rmi_cpu)  # client-side marshalling

                    pool = self.source_server.rmi_pool(dst)
                    connection = yield from pool.checkout(src, dst)
                    try:
                        yield from network.transfer(src, dst, request_bytes, kind="rmi")
                        callee_ctx = ctx.at_server(self.target_server)
                        if span is not None:
                            callee_ctx.span_id = span["id"]  # fresh context; bind in place
                        yield from callee_ctx.cpu(costs.rmi_cpu)  # server-side unmarshalling
                        result = yield from self.container.invoke(
                            callee_ctx, method, args, identity
                        )
                        response_bytes = result_size(costs.rmi_result_base, result)
                        yield from network.transfer(dst, src, response_bytes, kind="rmi")
                    except BaseException:
                        # A fault mid-exchange leaves the socket in an unknown
                        # state; close it so the pool never hands it out.
                        connection.close()
                        raise
                    finally:
                        pool.checkin(connection)  # no-op when the connection is closed

                    # Distributed garbage collection / ping traffic: the
                    # *latency* effect is an amortized fractional extra round
                    # trip per call; the *bytes* flow as detached ping/lease
                    # traffic sized to reproduce "more than half of the data
                    # traffic incurred by RMI is due to distributed garbage
                    # collection" (§4.3, citing [5]).
                    if costs.rmi_dgc_fraction > 0:
                        dgc_delay = costs.rmi_dgc_fraction * 2.0 * network.path_latency(src, dst)
                        if dgc_delay > 0:
                            yield env.sleep(dgc_delay)
                        env.process(
                            self._dgc_traffic(network, src, dst, request_bytes + response_bytes),
                            name=f"dgc-{self.descriptor.name}",
                        )
                    break
                except RETRYABLE_ERRORS as error:
                    stats = self.source_server.resilience
                    if attempt > costs.rmi_max_retries or env.now >= deadline:
                        stats.rmi_timeouts += 1
                        raise RmiTimeout(self.descriptor.name, method, src, dst, attempt) from error
                    stats.rmi_retries += 1
                    yield env.sleep(
                        backoff_delay(
                            costs.rmi_backoff_base_ms, costs.rmi_backoff_cap_ms, attempt
                        )
                    )
        finally:
            if span is not None:
                ctx.finish_span(span)
        return result

    def _dgc_traffic(self, network, src: str, dst: str, total_bytes: int):
        """Background DGC lease/ping exchange accompanying one call."""
        half = max(32, total_bytes // 2)
        try:
            yield from network.transfer(src, dst, half, kind="dgc")
            yield from network.transfer(dst, src, total_bytes - half, kind="dgc")
        except RETRYABLE_ERRORS:
            # Detached background traffic has no waiter to fail into;
            # lease/ping bytes lost to a partition are simply gone.
            pass
