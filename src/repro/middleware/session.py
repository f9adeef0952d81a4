"""Session bean containers: stateless (pooled) and stateful (per client).

Transaction demarcation is container-managed.  A ``REQUIRED`` business
method called outside a transaction begins one, commits it on success —
including the blocking replica push of §4.3 when updates are pending —
and rolls it back on failure.

What only the deployment decides about a call is resolved once per method
into a *call plan*; :meth:`BaseContainer.invoke` runs one, for every kind.
"""

from __future__ import annotations

from types import GeneratorType
from typing import Any, Dict, Generator, List

from ..simnet.kernel import Event
from .consistency import FootprintCollector
from .context import InvocationContext, TransactionContext
from .descriptors import ComponentDescriptor, ComponentKind, TxAttribute
from .ejb import BeanError, StatefulSessionBean, business_method

__all__ = ["BaseContainer", "StatelessSessionContainer", "StatefulSessionContainer"]


class BaseContainer:
    """Shared container behaviour: counters, call plans, the invocation path.

    A subclass says where instances come from: ``_instance(ctx, identity)``
    hands one over without waiting or returns None, and then the generator
    ``_instance_wait(ctx, identity)`` waits for one (a pool miss, an
    activation, a load).  ``_release(instance)``, where defined, takes it
    back after the call.
    """

    # Entity beans: instances live in the caller's transaction — acquired in
    # it, after the method charge; one left dirty marks it as writing.
    _transactional_instances = False
    _release = None
    _home_plans = None  # plans of calls without an identity, for kinds with a home

    def __init__(self, server: Any, descriptor: ComponentDescriptor):
        self.server = server
        self.descriptor = descriptor
        self.name = descriptor.name
        self.invocations = 0
        self.transactions_started = 0
        # Charges go straight to this server's CPUs (``ctx.cpu``, inlined).
        self._cpu_use = server.node.cpu.use
        # method -> call plan, filled on first use; the server drops them.
        self._plans: Dict[str, tuple] = server.plan_table()

    def _plan(self, method: str, plans: Dict[str, tuple], resolved: tuple = None) -> tuple:
        """Resolve ``method`` into ``(function, is_generator, begins, nests,
        suspends, cached)``, remember that in ``plans`` and return it.

        ``function(instance, ctx, *args)`` is what the name means.  The next
        three are the transaction attribute against "the caller has a
        transaction": open one when it has none / although it has one / run
        outside the one it has.  ``cached``: the server's method cache (None
        at levels 1–5) intercepts the method.
        """
        function, is_generator = resolved or business_method(self.descriptor.impl, method)
        attribute = self.descriptor.tx_attribute
        cache = self.server.method_cache
        plan = plans[method] = (
            function,
            is_generator,
            attribute in (TxAttribute.REQUIRED, TxAttribute.REQUIRES_NEW),
            attribute == TxAttribute.REQUIRES_NEW,
            attribute == TxAttribute.NOT_SUPPORTED,
            cache is not None and cache.intercepts(self.name, method),
        )
        return plan

    def invoke(
        self, ctx: InvocationContext, method: str, args: tuple, identity: Any = None
    ) -> Generator[Event, Any, Any]:
        """Run one business (or home) method under its plan: acquire an
        instance, demarcate, charge, call, commit or roll back."""
        self.invocations += 1
        plans = self._plans
        if identity is None and self._home_plans is not None:
            plans = self._home_plans
        try:
            plan = plans[method]
        except KeyError:
            plan = self._plan(method, plans)
        function, is_generator, begins, nests, suspends, cached = plan

        # Level 6: a method-cache hit skips everything below; a miss runs
        # it with a footprint collector attached and is stored afterwards.
        collector = None
        if cached:
            cache = self.server.method_cache
            key, entry = cache.find(self.name, method, args, ctx.env.now)
            if entry is not None:
                result = yield from cache.serve(ctx, key, entry)
                return result
            if key is not None:
                collector = FootprintCollector()
                caller, ctx = ctx, ctx.with_footprint(collector)

        transactional = self._transactional_instances
        if not transactional:
            instance = self._instance(ctx, identity)
            if instance is None:
                instance = yield from self._instance_wait(ctx, identity)
        try:
            transaction = None
            if ctx.transaction is None:
                if begins:
                    transaction = TransactionContext()
            elif nests:
                transaction = TransactionContext()
            elif suspends:
                ctx = ctx.in_transaction(None)
            if transaction is not None:
                self.transactions_started += 1
                ctx = ctx.in_transaction(transaction)
            try:
                work = ctx.costs.bean_method_base
                if work:
                    yield from self._cpu_use(work)
                if transactional:
                    instance = self._instance(ctx, identity)
                    if instance is None:
                        instance = yield from self._instance_wait(ctx, identity)
                result = function(instance, ctx, *args)
                if is_generator or result.__class__ is GeneratorType:
                    result = yield from result
                if transactional and instance is not self and instance._dirty_fields:
                    ctx.transaction.mark_write()
            except BaseException:
                if transaction is not None and transaction.state == "active":
                    yield from transaction.rollback(ctx)
                raise
            if transaction is not None and transaction.state == "active":
                if transaction.enlisted:
                    yield from transaction.commit(ctx)
                else:
                    transaction.state = "committed"  # nothing to store, commit or push
        finally:
            if self._release is not None:
                self._release(instance)
        if collector is not None:
            cache.learn(caller, key, collector, result)
        return result


class StatelessSessionContainer(BaseContainer):
    """Pools interchangeable instances; any free one serves any call."""

    #: Idle instances kept for reuse; one released beyond it is dropped.
    POOL_SIZE = 16

    def __init__(self, server: Any, descriptor: ComponentDescriptor):
        if descriptor.kind != ComponentKind.STATELESS_SESSION:
            raise BeanError(f"{descriptor.name!r} is not a stateless session bean")
        super().__init__(server, descriptor)
        self._pool: List[Any] = []
        self.instances_created = 0

    def drain(self) -> None:
        """Server-process crash: pooled instances are gone (counters survive)."""
        self._pool.clear()

    def _instance(self, ctx: InvocationContext, identity: Any) -> Any:
        return self._pool.pop() if self._pool else None

    def _instance_wait(
        self, ctx: InvocationContext, identity: Any
    ) -> Generator[Event, Any, Any]:
        instance = self.descriptor.impl()
        instance.ejb_create(ctx)
        self.instances_created += 1
        yield from ctx.cpu(ctx.costs.instance_creation)
        return instance

    def _release(self, instance: Any) -> None:
        if len(self._pool) < self.POOL_SIZE:
            self._pool.append(instance)


class StatefulSessionContainer(BaseContainer):
    """One instance per client session, created on first use.

    The instance key is the request's session id, so a client "sticks"
    to its conversational state on whichever server serves it — stateful
    session beans are deployable at the edge precisely because this state
    is not shared (§2.2).

    When the live-instance population exceeds the cost profile's
    ``stateful_passivation_threshold``, least-recently-used instances are
    passivated (serialized out of memory); touching a passivated session
    pays an activation delay.
    """

    PASSIVATION_IO_MS = 2.0  # serialize/deserialize to the store

    def __init__(self, server: Any, descriptor: ComponentDescriptor):
        if descriptor.kind != ComponentKind.STATEFUL_SESSION:
            raise BeanError(f"{descriptor.name!r} is not a stateful session bean")
        super().__init__(server, descriptor)
        # Live instances, least recently touched first (a touch re-inserts
        # its key): the passivation victim is the first key, never a scan.
        self._instances: Dict[str, StatefulSessionBean] = {}
        self._passivated: Dict[str, StatefulSessionBean] = {}
        self.instances_created = 0
        self.instances_removed = 0
        self.passivations = 0
        self.activations = 0

    def drain(self) -> None:
        """Server-process crash: all conversational state is lost (counters survive)."""
        self._instances.clear()
        self._passivated.clear()

    def _session_key(self, ctx: InvocationContext, identity: Any) -> str:
        if identity is not None:
            return str(identity)
        if ctx.request is None:
            raise BeanError(
                f"stateful bean {self.name!r} invoked without a session identity"
            )
        return ctx.request.session_id

    def instance_count(self) -> int:
        return len(self._instances) + len(self._passivated)

    def live_instance_count(self) -> int:
        return len(self._instances)

    def invoke(self, ctx: InvocationContext, method: str, args: tuple, identity: Any = None):
        """``remove`` ends the session without entering a bean: nothing is
        charged or demarcated, and the empty result yields nothing."""
        if method != "remove":
            return super().invoke(ctx, method, args, identity)
        self.invocations += 1
        key = self._session_key(ctx, identity)
        removed = self._instances.pop(key, None) or self._passivated.pop(key, None)
        if removed is not None:
            self.instances_removed += 1
        return ()

    def _instance(self, ctx: InvocationContext, identity: Any) -> None:
        return None  # every acquisition touches the LRU order and may wait

    def _instance_wait(
        self, ctx: InvocationContext, identity: Any
    ) -> Generator[Event, Any, Any]:
        """Activate or create the session's instance, then passivate down
        to the threshold (never the session being served)."""
        key = self._session_key(ctx, identity)
        live = self._instances
        instance = self._passivated.pop(key, None)
        if instance is not None:
            live[key] = instance
            self.activations += 1
            yield from ctx.cpu(self.PASSIVATION_IO_MS)
            yield ctx.env.sleep(self.PASSIVATION_IO_MS)  # store read-back
        instance = live.pop(key, None)
        if instance is None:
            instance = self.descriptor.impl()
            instance.session_id = key
            instance.ejb_create(ctx)
            live[key] = instance
            self.instances_created += 1
            yield from ctx.cpu(ctx.costs.instance_creation)
        else:
            live[key] = instance  # the touch
        while len(live) > ctx.costs.stateful_passivation_threshold:
            victim = next((other for other in live if other != key), None)
            if victim is None:
                break
            self._passivated[victim] = live.pop(victim)
            self.passivations += 1
            yield from ctx.cpu(self.PASSIVATION_IO_MS)
        return instance
