"""Unit tests for invocation and transaction contexts."""

import pytest

from repro.core.patterns import PatternLevel
from repro.middleware.context import (
    ContainerTransactionError,
    InvocationContext,
    RequestInfo,
    TransactionContext,
    UpdateEvent,
)
from tests.helpers import run_process, tiny_system


def _ctx(env, server):
    return InvocationContext(
        env=env,
        server=server,
        request=RequestInfo("p", "g", "s", "client-main-0"),
        costs=server.costs,
    )


def test_request_ids_are_unique():
    a = RequestInfo("p", "g", "s", "n")
    b = RequestInfo("p", "g", "s", "n")
    assert a.id != b.id


def test_at_server_drops_transaction_and_switches_costs():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    main, edge = system.main, system.servers["edge1"]
    ctx = _ctx(env, main)
    tx = TransactionContext()
    inner = ctx.in_transaction(tx)
    assert inner.transaction is tx
    remote = inner.at_server(edge)
    assert remote.transaction is None  # no WAN 2PC
    assert remote.server is edge
    assert remote.depth == inner.depth + 1
    assert remote.request is inner.request  # same page request identity


def test_commit_twice_rejected():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    ctx = _ctx(env, system.main)
    tx = TransactionContext()

    def proc():
        yield from tx.commit(ctx.in_transaction(tx))
        yield from tx.commit(ctx.in_transaction(tx))

    with pytest.raises(ContainerTransactionError):
        run_process(env, proc())


def test_rollback_after_commit_rejected():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    ctx = _ctx(env, system.main)
    tx = TransactionContext()

    def proc():
        yield from tx.commit(ctx.in_transaction(tx))
        yield from tx.rollback(ctx.in_transaction(tx))

    with pytest.raises(ContainerTransactionError):
        run_process(env, proc())


def test_rollback_discards_update_events():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    ctx = _ctx(env, system.main)
    tx = TransactionContext()
    tx.add_update_event(UpdateEvent("Note", "notes", 1, {"text": "x"}))

    def proc():
        yield from tx.rollback(ctx.in_transaction(tx))

    run_process(env, proc())
    assert not tx.update_events
    assert tx.state == "aborted"


def test_enlist_entity_deduplicates_by_identity():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    ctx = _ctx(env, system.main)
    tx = TransactionContext()

    class FakeInstance:
        primary_key = 7

    container = object()
    instance = FakeInstance()
    tx.enlist_entity(container, instance)
    tx.enlist_entity(container, instance)
    assert len(tx._enlisted_entities) == 1


def test_cpu_charges_current_server():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    ctx = _ctx(env, system.main)

    def proc():
        start = env.now
        yield from ctx.cpu(12.5)
        return env.now - start

    assert run_process(env, proc()) == pytest.approx(12.5)


def test_start_span_without_trace_is_noop():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    ctx = _ctx(env, system.main)
    assert ctx.trace is None
    span = ctx.start_span("rmi", "X.m")
    assert span is None
    ctx.finish_span(span)  # must not raise
    assert ctx.in_span(span) is ctx
