"""Bounded query caches: the capacity bound and eviction accounting.

Before the LRU refit the per-query entry dict grew without bound for
the life of the server; now every query's entries live in a
:class:`~repro.rdbms.lru.LruCache` of ``QUERY_CACHE_CAPACITY``, and
evictions surface in :class:`QueryCacheStats`.  The tests shrink a
cache by replacing its ``_entries`` LRU.
"""

from repro.core.patterns import PatternLevel
from repro.middleware.context import InvocationContext, RequestInfo
from repro.middleware.querycache import QUERY_CACHE_CAPACITY, QueryCacheManager
from repro.rdbms.lru import LruCache
from tests.helpers import run_process, tiny_system


def _ctx(env, server):
    return InvocationContext(
        env=env,
        server=server,
        request=RequestInfo("Notes", "test", "qc", "client-main-0"),
        costs=server.costs,
    )


def _query(env, system, server_name, author):
    server = system.servers[server_name]
    ctx = _ctx(env, server)

    def proc():
        facade = yield from server.lookup(ctx, "NotesFacade")
        rows = yield from facade.call(ctx, "notes_of", author)
        return rows

    return proc()


def test_default_capacity_is_generous():
    env, system = tiny_system(PatternLevel.QUERY_CACHING)
    manager = system.servers["edge1"].query_cache
    assert isinstance(manager, QueryCacheManager)
    assert manager._entries["tiny.notes_of"].capacity == QUERY_CACHE_CAPACITY


def test_full_cache_evicts_lru_params_and_counts_it():
    env, system = tiny_system(PatternLevel.QUERY_CACHING)
    manager = system.servers["edge1"].query_cache
    manager._entries["tiny.notes_of"] = LruCache(2)

    def scenario():
        for author in ("author0", "author1", "author2"):
            yield from _query(env, system, "edge1", author)
        # author0 was evicted by author2's install: a re-read misses.
        yield from _query(env, system, "edge1", "author0")

    run_process(env, scenario())
    stats = manager.stats["tiny.notes_of"]
    assert stats.evictions >= 1
    assert stats.misses == 4  # three cold misses + the post-eviction one
    assert len(manager._entries["tiny.notes_of"]) <= 2


def test_evictions_key_is_emitted_only_when_nonzero():
    env, system = tiny_system(PatternLevel.QUERY_CACHING)
    manager = system.servers["edge1"].query_cache

    def scenario():
        yield from _query(env, system, "edge1", "author0")
        yield from _query(env, system, "edge1", "author0")

    run_process(env, scenario())
    stats = manager.stats["tiny.notes_of"]
    # No eviction happened: the snapshot must stay byte-identical with
    # the pre-LRU format (no "evictions" key at all).
    assert "evictions" not in stats.as_dict()
    stats.evictions = 3
    assert stats.as_dict()["evictions"] == 3


def test_eviction_discards_stale_bookkeeping():
    env, system = tiny_system(PatternLevel.QUERY_CACHING)
    manager = system.servers["edge1"].query_cache
    manager._entries["tiny.notes_of"] = LruCache(1)

    def scenario():
        yield from _query(env, system, "edge1", "author0")

    run_process(env, scenario())
    # Mark the resident params stale, then evict them with a new install.
    manager._stale["tiny.notes_of"].add(("author0",))

    def fill():
        yield from _query(env, system, "edge1", "author1")

    run_process(env, fill())
    assert ("author0",) not in manager._stale["tiny.notes_of"]
