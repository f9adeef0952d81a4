"""Failure injection: packet loss, lock contention, slow replicas.

The paper's testbed is loss-free and lightly loaded; these tests push
the substrate outside that envelope to verify that failures surface
loudly and state stays consistent.
"""

import random

import pytest

from repro.core.patterns import PatternLevel
from repro.middleware.context import InvocationContext, RequestInfo
from repro.rdbms.transactions import TransactionError
from repro.simnet.router import PacketLoss
from tests.helpers import run_process, tiny_system


def _ctx(env, server, session="fi"):
    return InvocationContext(
        env=env,
        server=server,
        request=RequestInfo("Notes", "test", session, "client-main-0"),
        costs=server.costs,
    )


def _lossy_link(system, a, b, probability, seed):
    """Make the link joining ``a`` and ``b`` drop messages (``Link.set_loss``)."""
    link = system.testbed.network.link_between(a, b)
    link.set_loss(probability, random.Random(seed))
    return link


def test_packet_loss_surfaces_as_exception():
    env, system = tiny_system(PatternLevel.REMOTE_FACADE)
    system.warm_replicas()
    link = _lossy_link(system, "edge1", "router", probability=1.0, seed=3)
    edge = system.servers["edge1"]
    ctx = _ctx(env, edge)

    def proc():
        facade = yield from edge.lookup(ctx, "NotesFacade")
        yield from facade.call(ctx, "read_note", 1)

    with pytest.raises(PacketLoss):
        run_process(env, proc())
    assert link.dropped_packets >= 1


def test_zero_loss_probability_is_harmless():
    env, system = tiny_system(PatternLevel.REMOTE_FACADE)
    link = _lossy_link(system, "edge1", "router", probability=0.0, seed=4)
    edge = system.servers["edge1"]
    ctx = _ctx(env, edge)

    def proc():
        facade = yield from edge.lookup(ctx, "NotesFacade")
        text = yield from facade.call(ctx, "read_note", 1)
        return text

    assert run_process(env, proc()) == "note text 1"
    assert link.dropped_packets == 0


def test_lock_timeout_aborts_cleanly():
    """A writer stuck behind a never-releasing lock times out; its
    transaction rolls back and the database stays consistent."""
    env, system = tiny_system(PatternLevel.REMOTE_FACADE)
    system.db_server.locks.timeout_ms = 2_000.0
    main = system.main
    database = system.db_server.database
    outcome = {}

    def holder():
        # Acquire a lock through a raw db session and never release it.
        session = system.db_server.open_session()
        system.db_server.begin(session)
        result = yield from system.db_server.execute(
            session, "UPDATE notes SET text = 'held' WHERE id = 1"
        )
        outcome["held"] = result.affected
        yield env.timeout(60_000.0)

    def contender():
        yield env.timeout(100.0)
        ctx = _ctx(env, main, session="contender")
        facade = yield from main.lookup(ctx, "NotesFacade")
        try:
            yield from facade.call(ctx, "write_note", 1, "contender-value")
        except TransactionError as error:
            outcome["error"] = str(error)

    env.process(holder())
    env.process(contender())
    env.run(until=10_000.0)
    assert outcome["held"] == 1
    assert "timeout" in outcome["error"]
    # The contender's transaction rolled back: its value never landed.
    assert database.execute("SELECT text FROM notes WHERE id = 1").scalar() == "held"


def test_concurrent_writers_serialize_correctly():
    """Two writers to the same note: both commit, the later one wins, and
    every replica converges to the winner."""
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    system.warm_replicas()
    main = system.main
    order = []

    def writer(name, delay):
        yield env.timeout(delay)
        ctx = _ctx(env, main, session=name)
        facade = yield from main.lookup(ctx, "NotesFacade")
        yield from facade.call(ctx, "write_note", 5, name)
        order.append((env.now, name))

    env.process(writer("writer-a", 0.0))
    env.process(writer("writer-b", 1.0))
    env.run()
    assert len(order) == 2
    winner = max(order)[1]
    database = system.db_server.database
    assert database.execute("SELECT text FROM notes WHERE id = 5").scalar() == winner
    for server_name in ("edge1", "edge2"):
        replica = system.servers[server_name].readonly_container("Note")
        assert replica._cache[5]["text"] == winner


def test_bean_exception_does_not_poison_the_container():
    """After a failed invocation, the pooled instance keeps serving."""
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    system.warm_replicas()
    main = system.main
    ctx = _ctx(env, main)

    def proc():
        facade = yield from main.lookup(ctx, "NotesFacade")
        try:
            yield from facade.call(ctx, "read_note", 9_999)  # missing row
        except Exception:
            pass
        text = yield from facade.call(ctx, "read_note", 1)
        return text

    assert run_process(env, proc()) == "note text 1"
