"""Tests for container-managed transaction attributes and stateful beans."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.patterns import PatternLevel
from repro.middleware.context import InvocationContext, RequestInfo, TransactionContext
from repro.middleware.descriptors import (
    ComponentDescriptor,
    ComponentKind,
    TxAttribute,
)
from repro.middleware.ejb import BeanError, StatefulSessionBean, StatelessSessionBean
from repro.middleware.session import StatefulSessionContainer, StatelessSessionContainer
from tests.helpers import run_process, tiny_system


class _TxProbeBean(StatelessSessionBean):
    """Reports the transaction context it observes."""

    def observe(self, ctx):
        tx = ctx.transaction
        return None if tx is None else tx.id
        yield  # pragma: no cover


class _CounterBean(StatefulSessionBean):
    def ejb_create(self, ctx, *args):
        self.state["count"] = 0

    def bump(self, ctx):
        self.state["count"] += 1
        return self.state["count"]


def _container(system, attribute, kind=ComponentKind.STATELESS_SESSION, impl=_TxProbeBean):
    descriptor = ComponentDescriptor(
        name=f"Probe{attribute.value}",
        kind=kind,
        impl=impl,
        tx_attribute=attribute,
    )
    if kind == ComponentKind.STATELESS_SESSION:
        return StatelessSessionContainer(system.main, descriptor)
    return StatefulSessionContainer(system.main, descriptor)


def _ctx(env, server, session="tx", transaction=None):
    return InvocationContext(
        env=env,
        server=server,
        request=RequestInfo("p", "g", session, "client-main-0"),
        costs=server.costs,
        transaction=transaction,
    )


def test_required_starts_transaction_when_absent():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    container = _container(system, TxAttribute.REQUIRED)
    ctx = _ctx(env, system.main)

    def proc():
        tx_id = yield from container.invoke(ctx, "observe", ())
        return tx_id

    assert run_process(env, proc()) is not None
    assert container.transactions_started == 1


def test_required_joins_existing_transaction():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    container = _container(system, TxAttribute.REQUIRED)
    base_ctx = _ctx(env, system.main)
    existing = TransactionContext()
    ctx = base_ctx.in_transaction(existing)

    def proc():
        tx_id = yield from container.invoke(ctx, "observe", ())
        return tx_id

    assert run_process(env, proc()) == existing.id
    assert container.transactions_started == 0


def test_requires_new_always_starts_fresh():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    container = _container(system, TxAttribute.REQUIRES_NEW)
    base_ctx = _ctx(env, system.main)
    existing = TransactionContext()
    ctx = base_ctx.in_transaction(existing)

    def proc():
        tx_id = yield from container.invoke(ctx, "observe", ())
        return tx_id

    observed = run_process(env, proc())
    assert observed is not None and observed != existing.id


def test_not_supported_suspends_transaction():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    container = _container(system, TxAttribute.NOT_SUPPORTED)
    base_ctx = _ctx(env, system.main)
    existing = TransactionContext()
    ctx = base_ctx.in_transaction(existing)

    def proc():
        tx_id = yield from container.invoke(ctx, "observe", ())
        return tx_id

    assert run_process(env, proc()) is None


def test_supports_runs_with_or_without():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    container = _container(system, TxAttribute.SUPPORTS)
    ctx_without = _ctx(env, system.main)

    def proc_without():
        tx_id = yield from container.invoke(ctx_without, "observe", ())
        return tx_id

    assert run_process(env, proc_without()) is None
    base_ctx = _ctx(env, system.main)
    existing = TransactionContext()
    ctx_with = base_ctx.in_transaction(existing)

    def proc_with():
        tx_id = yield from container.invoke(ctx_with, "observe", ())
        return tx_id

    assert run_process(env, proc_with()) == existing.id


# ---------------------------------------------------------------------------
# Stateful session semantics
# ---------------------------------------------------------------------------


def test_stateful_instances_isolated_per_session():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    container = _container(
        system, TxAttribute.NOT_SUPPORTED,
        kind=ComponentKind.STATEFUL_SESSION, impl=_CounterBean,
    )

    def proc():
        counts = []
        for session in ("alice", "alice", "bob"):
            ctx = _ctx(env, system.main, session=session)
            count = yield from container.invoke(ctx, "bump", ())
            counts.append(count)
        return counts

    assert run_process(env, proc()) == [1, 2, 1]
    assert container.instance_count() == 2


def test_stateful_remove_discards_state():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    container = _container(
        system, TxAttribute.NOT_SUPPORTED,
        kind=ComponentKind.STATEFUL_SESSION, impl=_CounterBean,
    )

    def proc():
        ctx = _ctx(env, system.main, session="alice")
        yield from container.invoke(ctx, "bump", ())
        yield from container.invoke(ctx, "remove", ())
        count = yield from container.invoke(ctx, "bump", ())  # fresh instance
        return count

    assert run_process(env, proc()) == 1
    assert container.instances_removed == 1


def test_stateful_explicit_identity_overrides_session():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    container = _container(
        system, TxAttribute.NOT_SUPPORTED,
        kind=ComponentKind.STATEFUL_SESSION, impl=_CounterBean,
    )

    def proc():
        ctx = _ctx(env, system.main, session="alice")
        yield from container.invoke(ctx, "bump", ())
        count = yield from container.invoke(ctx, "bump", (), identity="shared-key")
        return count

    assert run_process(env, proc()) == 1  # separate identity, fresh state


def test_container_kind_mismatch_rejected():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    descriptor = ComponentDescriptor(
        name="Wrong", kind=ComponentKind.STATEFUL_SESSION, impl=_CounterBean
    )
    with pytest.raises(BeanError):
        StatelessSessionContainer(system.main, descriptor)


# ---------------------------------------------------------------------------
# Stateful passivation
# ---------------------------------------------------------------------------


def _passivating_container(system):
    container = _container(
        system, TxAttribute.NOT_SUPPORTED,
        kind=ComponentKind.STATEFUL_SESSION, impl=_CounterBean,
    )
    return container


def test_passivation_bounds_live_instances():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    system.main.costs = system.main.costs.variant(stateful_passivation_threshold=3)
    container = _passivating_container(system)

    def proc():
        for index in range(8):
            ctx = _ctx(env, system.main, session=f"user-{index}")
            yield from container.invoke(ctx, "bump", ())

    run_process(env, proc())
    assert container.live_instance_count() <= 3
    assert container.instance_count() == 8  # nothing lost, only passivated
    assert container.passivations >= 5


def test_passivated_state_survives_activation():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    system.main.costs = system.main.costs.variant(stateful_passivation_threshold=2)
    container = _passivating_container(system)

    def proc():
        # Build up user-0's state, then push it out with other sessions.
        ctx0 = _ctx(env, system.main, session="user-0")
        yield from container.invoke(ctx0, "bump", ())
        yield from container.invoke(ctx0, "bump", ())
        for index in range(1, 5):
            ctx = _ctx(env, system.main, session=f"user-{index}")
            yield from container.invoke(ctx, "bump", ())
        # user-0 is passivated by now; touching it reactivates with state.
        count = yield from container.invoke(ctx0, "bump", ())
        return count

    assert run_process(env, proc()) == 3
    assert container.activations >= 1


def test_lru_victim_selection():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    system.main.costs = system.main.costs.variant(stateful_passivation_threshold=2)
    container = _passivating_container(system)

    def proc():
        for session in ("a", "b", "a", "c"):  # b is the least recently used
            ctx = _ctx(env, system.main, session=session)
            yield from container.invoke(ctx, "bump", ())

    run_process(env, proc())
    assert "b" in container._passivated
    assert "a" in container._instances and "c" in container._instances


class _MinVictimModel:
    """The eviction rule this container had before it kept its instances
    in last-touch order: stamp every touch with a counter, and passivate
    ``min()`` over all live instances.  The reference for the test below."""

    def __init__(self, threshold, costs):
        self.threshold = threshold
        self.costs = costs
        self.live, self.passivated, self.last_used = set(), set(), {}
        self.counter = self.passivations = self.activations = 0
        self.evicted = []
        self.charged = 0.0

    def touch(self, key):
        io = StatefulSessionContainer.PASSIVATION_IO_MS
        if key in self.passivated:
            self.passivated.remove(key)
            self.live.add(key)
            self.activations += 1
            self.charged += 2 * io  # CPU, then the store read-back
        self.counter += 1
        self.last_used[key] = self.counter
        if key not in self.live:
            self.live.add(key)
            self.charged += self.costs.instance_creation
        while len(self.live) > self.threshold:
            victim = min(
                (k for k in self.live if k != key),
                key=lambda k: self.last_used.get(k, 0),
                default=None,
            )
            if victim is None:
                break
            self.live.remove(victim)
            self.passivated.add(victim)
            self.evicted.append(victim)
            self.passivations += 1
            self.charged += io
        self.charged += self.costs.bean_method_base

    def remove(self, key):
        self.live.discard(key)
        self.passivated.discard(key)
        self.last_used.pop(key, None)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["touch", "touch", "touch", "remove"]), st.integers(0, 6)),
        max_size=40,
    )
)
def test_last_touch_order_evicts_what_min_over_stamps_did(operations):
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    system.main.costs = system.main.costs.variant(stateful_passivation_threshold=3)
    container = _passivating_container(system)
    model = _MinVictimModel(3, system.main.costs)
    evicted = []

    def proc():
        for operation, user in operations:
            key = f"user-{user}"
            ctx = _ctx(env, system.main, session=key)
            before = set(container._passivated)
            if operation == "touch":
                model.touch(key)
                yield from container.invoke(ctx, "bump", ())
            else:
                model.remove(key)
                yield from container.invoke(ctx, "remove", ())
            evicted.extend(k for k in container._passivated if k not in before)
            assert set(container._instances) == model.live
            assert set(container._passivated) == model.passivated
            # Least recently used first, exactly as the stamps order them.
            assert list(container._instances) == sorted(model.live, key=model.last_used.get)

    run_process(env, proc())
    assert evicted == model.evicted
    assert (container.passivations, container.activations) == (
        model.passivations,
        model.activations,
    )
    assert env.now == pytest.approx(model.charged, abs=1e-9)
