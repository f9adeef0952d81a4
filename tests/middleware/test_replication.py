"""Unit tests for read-only replicas, query caches, and update propagation."""

import pytest

from repro.core.patterns import PatternLevel
from repro.middleware.context import InvocationContext, RequestInfo, UpdateEvent
from repro.middleware.ejb import BeanError
from repro.middleware.readonly import ReadOnlyViolation
from tests.helpers import run_process, tiny_system


def _ctx(env, server, session="s1"):
    return InvocationContext(
        env=env,
        server=server,
        request=RequestInfo("Notes", "test", session, "client-main-0"),
        costs=server.costs,
        trace=server.trace,
    )


def _edge(system):
    return system.servers["edge1"]


# ---------------------------------------------------------------------------
# Read-only replica container
# ---------------------------------------------------------------------------


def test_replica_deployed_on_all_servers_at_level3():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    for server in system.servers.values():
        assert server.readonly_container("Note") is not None


def test_no_replicas_below_level3():
    env, system = tiny_system(PatternLevel.REMOTE_FACADE)
    for server in system.servers.values():
        assert server.readonly_container("Note") is None


def test_cold_miss_pulls_from_central_once():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    edge = _edge(system)
    replica = edge.readonly_container("Note")
    ctx = _ctx(env, edge)

    def read():
        facade = yield from edge.lookup(ctx, "NotesFacade")
        text = yield from facade.call(ctx, "read_note", 2)
        return text

    assert run_process(env, read()) == "note text 2"
    assert replica.misses == 1
    assert replica.refreshes == 1

    assert run_process(env, read()) == "note text 2"
    assert replica.hits == 1
    assert replica.misses == 1  # warm now


def test_warm_read_is_local_latency():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    system.warm_replicas()
    edge = _edge(system)
    ctx = _ctx(env, edge)

    def read():
        start = env.now
        facade = yield from edge.lookup(ctx, "NotesFacade")
        yield from facade.call(ctx, "read_note", 2)
        return env.now - start

    elapsed = run_process(env, read())
    assert elapsed < 10.0  # no WAN round trip


def test_replica_rejects_writes():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    system.warm_replicas()
    edge = _edge(system)
    ctx = _ctx(env, edge)

    def bad():
        home = yield from edge.lookup(ctx, "Note")
        yield from home.entity(1).call(ctx, "bad_write")

    with pytest.raises(ReadOnlyViolation):
        run_process(env, bad())


def test_replica_rejects_custom_finders():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    edge = _edge(system)
    ctx = _ctx(env, edge)

    def bad():
        home = yield from edge.lookup(ctx, "Note")
        yield from home.find(ctx, "find_by_author", "author1")

    with pytest.raises(BeanError):
        run_process(env, bad())


def test_apply_update_installs_fresh_state():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    system.warm_replicas()
    replica = _edge(system).readonly_container("Note")
    replica.apply_update(
        UpdateEvent("Note", "notes", 1, {"id": 1, "author": "a", "text": "pushed"})
    )
    assert replica.is_fresh(1)
    ctx = _ctx(env, _edge(system))

    def read():
        home = yield from _edge(system).lookup(ctx, "Note")
        text = yield from home.entity(1).call(ctx, "get_text")
        return text

    assert run_process(env, read()) == "pushed"


def test_invalidate_marks_stale():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    system.warm_replicas()
    replica = _edge(system).readonly_container("Note")
    assert replica.is_fresh(1)
    replica.invalidate(1)
    assert not replica.is_fresh(1)
    replica.invalidate()  # everything
    assert all(not replica.is_fresh(k) for k in replica.cached_keys())


# ---------------------------------------------------------------------------
# End-to-end consistency through the write path
# ---------------------------------------------------------------------------


def test_sync_push_keeps_replicas_fresh_zero_staleness():
    """§4.3: a read arriving after a committed write sees the new value."""
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    system.warm_replicas()
    edge = _edge(system)
    main = system.main
    ctx_main = _ctx(env, main)
    ctx_edge = _ctx(env, edge)

    def write_then_read():
        facade = yield from main.lookup(ctx_main, "NotesFacade")
        yield from facade.call(ctx_main, "write_note", 1, "v2")
        # The write has committed; the edge replica must already be fresh.
        edge_facade = yield from edge.lookup(ctx_edge, "NotesFacade")
        text = yield from edge_facade.call(ctx_edge, "read_note", 1)
        return text

    assert run_process(env, write_then_read()) == "v2"
    assert main.update_propagator.sync_pushes == 1


def test_writer_blocks_on_sync_push():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    system.warm_replicas()
    main = system.main
    ctx = _ctx(env, main)

    def write():
        start = env.now
        facade = yield from main.lookup(ctx, "NotesFacade")
        yield from facade.call(ctx, "write_note", 1, "v2")
        return env.now - start

    elapsed = run_process(env, write())
    assert elapsed > 200.0  # blocked on a WAN round trip to the edges


def test_async_updates_do_not_block_writer():
    env, system = tiny_system(PatternLevel.ASYNC_UPDATES)
    system.warm_replicas()
    main = system.main
    ctx = _ctx(env, main)

    def write():
        start = env.now
        facade = yield from main.lookup(ctx, "NotesFacade")
        yield from facade.call(ctx, "write_note", 1, "v2")
        return env.now - start

    elapsed = run_process(env, write())
    assert elapsed < 100.0
    assert main.update_propagator.async_publishes == 1
    assert main.update_propagator.sync_pushes == 0


def test_async_updates_eventually_reach_replicas():
    env, system = tiny_system(PatternLevel.ASYNC_UPDATES)
    system.warm_replicas()
    main = system.main
    edge = _edge(system)
    ctx = _ctx(env, main)

    def write():
        facade = yield from main.lookup(ctx, "NotesFacade")
        yield from facade.call(ctx, "write_note", 1, "async-v2")

    run_process(env, write())  # env.run() drains the in-flight deliveries
    replica = edge.readonly_container("Note")
    assert replica.is_fresh(1)
    ctx_edge = _ctx(env, edge)

    def read():
        home = yield from edge.lookup(ctx_edge, "Note")
        text = yield from home.entity(1).call(ctx_edge, "get_text")
        return text

    assert run_process(env, read()) == "async-v2"


# ---------------------------------------------------------------------------
# Query caches
# ---------------------------------------------------------------------------


def test_query_cache_active_only_from_level4():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    assert _edge(system).query_cache is None
    env, system = tiny_system(PatternLevel.QUERY_CACHING)
    assert _edge(system).query_cache is not None
    assert _edge(system).query_cache.handles("tiny.notes_of")


def test_query_cache_miss_pulls_then_hits():
    env, system = tiny_system(PatternLevel.QUERY_CACHING)
    edge = _edge(system)
    cache = edge.query_cache
    ctx = _ctx(env, edge)

    def query():
        facade = yield from edge.lookup(ctx, "NotesFacade")
        rows = yield from facade.call(ctx, "notes_of", "author1")
        return rows

    rows = run_process(env, query())
    assert {row["id"] for row in rows} == {1, 4, 7, 10}
    stats = cache.stats["tiny.notes_of"]
    assert stats.misses == 1

    run_process(env, query())
    assert stats.hits == 1


def test_query_cache_push_refresh_after_write():
    """§4.4 push-based query update: readers are never penalized."""
    env, system = tiny_system(PatternLevel.QUERY_CACHING)
    system.warm_replicas()
    edge = _edge(system)
    main = system.main
    ctx_main = _ctx(env, main)
    ctx_edge = _ctx(env, edge)

    def warm():
        facade = yield from edge.lookup(ctx_edge, "NotesFacade")
        yield from facade.call(ctx_edge, "notes_of", "author1")

    run_process(env, warm())

    def write():
        facade = yield from main.lookup(ctx_main, "NotesFacade")
        yield from facade.call(ctx_main, "create_note", 300, "author1", "brand new")

    run_process(env, write())
    # The cache entry was refreshed by push, not invalidated.
    assert edge.query_cache.is_fresh("tiny.notes_of", ("author1",))

    def query():
        start = env.now
        facade = yield from edge.lookup(ctx_edge, "NotesFacade")
        rows = yield from facade.call(ctx_edge, "notes_of", "author1")
        return rows, env.now - start

    rows, elapsed = run_process(env, query())
    assert 300 in {row["id"] for row in rows}
    assert elapsed < 10.0  # served locally


def test_query_cache_unknown_query_rejected():
    env, system = tiny_system(PatternLevel.QUERY_CACHING)
    with pytest.raises(KeyError):
        run_process(env, _edge(system).query_cache.get(_ctx(env, _edge(system)), "nope", ()))
