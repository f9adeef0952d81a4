"""Unit tests for JMS topics and message-driven bean delivery."""

import pytest

from repro.core.patterns import PatternLevel
from repro.middleware.context import InvocationContext, RequestInfo
from repro.middleware.ejb import BeanError, MessageDrivenBean
from repro.middleware.descriptors import ComponentDescriptor, ComponentKind, TxAttribute
from repro.middleware.jms import Message
from repro.middleware.mdb import MessageDrivenContainer
from tests.helpers import run_process, tiny_system


class _CollectingMdb(MessageDrivenBean):
    received = None  # set per test

    def on_message(self, ctx, message):
        type(self).received.append((ctx.env.now, message.body))
        return None
        yield  # pragma: no cover


def _mdb_descriptor(topic="t"):
    return ComponentDescriptor(
        name="Collector",
        kind=ComponentKind.MESSAGE_DRIVEN,
        impl=_CollectingMdb,
        topic=topic,
        tx_attribute=TxAttribute.NOT_SUPPORTED,
        remote_interface=False,
    )


def _ctx(env, server):
    return InvocationContext(
        env=env,
        server=server,
        request=RequestInfo("p", "test", "s", "client-main-0"),
        costs=server.costs,
    )


@pytest.fixture
def jms_setup():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    _CollectingMdb.received = []
    provider = system.main.jms
    return env, system, provider


def test_publish_is_accepted_without_subscribers(jms_setup):
    env, system, provider = jms_setup
    ctx = _ctx(env, system.main)

    def proc():
        message = yield from provider.publish(ctx, "empty-topic", {"x": 1})
        return message

    message = run_process(env, proc())
    assert isinstance(message, Message)
    assert provider.topic("empty-topic").published == 1
    assert provider.topic("empty-topic").delivered == 0


def test_delivery_to_local_subscriber(jms_setup):
    env, system, provider = jms_setup
    container = MessageDrivenContainer(system.main, _mdb_descriptor())
    provider.topic("t").subscribe(system.main, container)
    ctx = _ctx(env, system.main)

    def proc():
        yield from provider.publish(ctx, "t", "hello")

    run_process(env, proc())
    assert [body for _t, body in _CollectingMdb.received] == ["hello"]
    assert container.invocations == 1


def test_delivery_to_remote_subscriber_crosses_wan(jms_setup):
    env, system, provider = jms_setup
    edge = system.servers["edge1"]
    container = MessageDrivenContainer(edge, _mdb_descriptor())
    provider.topic("t").subscribe(edge, container)
    ctx = _ctx(env, system.main)

    def proc():
        yield from provider.publish(ctx, "t", "payload")
        return env.now

    publish_done = run_process(env, proc())
    # env.run drained the delivery: it arrived >= 100 ms after publish.
    arrival = _CollectingMdb.received[0][0]
    assert arrival >= 100.0
    assert publish_done < arrival  # publisher returned before delivery


def test_fanout_to_multiple_subscribers(jms_setup):
    env, system, provider = jms_setup
    for server_name in ("edge1", "edge2"):
        server = system.servers[server_name]
        container = MessageDrivenContainer(server, _mdb_descriptor())
        provider.topic("t").subscribe(server, container)
    ctx = _ctx(env, system.main)

    def proc():
        yield from provider.publish(ctx, "t", "broadcast")

    run_process(env, proc())
    assert len(_CollectingMdb.received) == 2
    assert provider.topic("t").delivered == 2


def test_mean_delivery_latency_tracked(jms_setup):
    env, system, provider = jms_setup
    edge = system.servers["edge1"]
    container = MessageDrivenContainer(edge, _mdb_descriptor())
    provider.topic("t").subscribe(edge, container)
    ctx = _ctx(env, system.main)

    def proc():
        yield from provider.publish(ctx, "t", "x")

    run_process(env, proc())
    assert provider.mean_delivery_latency() >= 100.0


def test_mdb_rejects_non_message_methods(jms_setup):
    env, system, provider = jms_setup
    container = MessageDrivenContainer(system.main, _mdb_descriptor())
    ctx = _ctx(env, system.main)

    def proc():
        yield from container.invoke(ctx, "something_else", ())

    with pytest.raises(BeanError):
        run_process(env, proc())


def test_mdb_container_rejects_wrong_kind(jms_setup):
    env, system, provider = jms_setup
    descriptor = ComponentDescriptor(
        name="NotMdb", kind=ComponentKind.STATELESS_SESSION, impl=_CollectingMdb
    )
    with pytest.raises(BeanError):
        MessageDrivenContainer(system.main, descriptor)


def test_message_wire_size_scales(jms_setup):
    small = Message(topic="t", body="x")
    large = Message(topic="t", body="x" * 10_000)
    assert large.wire_size() > small.wire_size()
