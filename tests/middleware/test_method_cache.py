"""The unified consistency chain and level-6 transactional method caching.

Covers the chain's members, the cached call path (hits, misses,
learned footprints, write rejection), commit-driven invalidation over
the shared bus in both strict and bounded modes, and the failure guards
(sequence gaps, crash drops, LRU eviction bookkeeping).
"""

from dataclasses import replace

import pytest

from repro.core.distribution import distribute
from repro.core.patterns import PatternLevel
from repro.core.policy import level_policy
from repro.core.rules import check_rules
from repro.middleware.context import InvocationContext, RequestInfo
from repro.middleware.descriptors import ComponentDescriptor, ComponentKind, UpdateMode
from repro.middleware.ejb import StatelessSessionBean
from repro.middleware.updates import UpdatePayload
from repro.rdbms.lru import LruCache
from repro.simnet.kernel import Environment
from repro.simnet.topology import TestbedConfig, build_testbed
from tests.helpers import run_process, tiny_application, tiny_database, tiny_system


def _ctx(env, server, session="mc"):
    return InvocationContext(
        env=env,
        server=server,
        request=RequestInfo("Notes", "test", session, "client-main-0"),
        costs=server.costs,
    )


def _call(env, system, server_name, method, *args):
    server = system.servers[server_name]
    ctx = _ctx(env, server)

    def proc():
        facade = yield from server.lookup(ctx, "NotesFacade")
        result = yield from facade.call(ctx, method, *args)
        return result

    return proc()


def _level6_system():
    """The canned level-6 system (cumulative over 5: bounded/ASYNC)."""
    env, system = tiny_system(PatternLevel.METHOD_CACHING)
    system.warm_replicas()
    return env, system


def _strict_policy(app):
    """The canned level-6 policy flipped to synchronous (strict) pushes."""
    policy = level_policy(PatternLevel.METHOD_CACHING, app)
    return replace(policy, update_mode=UpdateMode.SYNC)


def _strict_system():
    """Level-6 placements with synchronous (strict) update propagation."""
    env = Environment()
    testbed = build_testbed(env, TestbedConfig())
    app = tiny_application()
    system = distribute(env, testbed, app, _strict_policy(app), tiny_database())
    system.warm_replicas()
    return env, system


# ---------------------------------------------------------------------------
# Deployment shape
# ---------------------------------------------------------------------------


def test_level6_deploys_method_caches_on_edges_only():
    env, system = _level6_system()
    assert system.main.method_cache is None
    for name in ("edge1", "edge2"):
        cache = system.servers[name].method_cache
        assert cache is not None
        assert cache.intercepts("NotesFacade", "read_note")
        assert not cache.intercepts("NotesFacade", "write_note")
    assert system.plan.method_caches == {"NotesFacade": ["edge1", "edge2"]}


def test_level6_propagator_tracks_table_writes():
    env, system = _level6_system()
    propagator = system.main.update_propagator
    assert propagator is not None
    assert propagator.tracks_table_writes
    assert propagator.mode == UpdateMode.ASYNC


def test_levels_below_six_have_no_method_cache():
    env, system = tiny_system(PatternLevel.ASYNC_UPDATES)
    for server in system.servers.values():
        assert server.method_cache is None
    assert system.plan.method_caches == {}
    assert not system.main.update_propagator.tracks_table_writes


def test_consistency_chain_members():
    """The chain holds the mechanisms themselves, in the order the
    deployment created them: replicas, the query cache, the method cache."""
    env, system = _level6_system()
    edge = system.servers["edge1"]
    members = edge.consistency.members()
    assert [m.kind for m in members] == ["replicas", "query_cache", "method_cache"]
    assert members == [edge.readonly_container("Note"), edge.query_cache, edge.method_cache]
    # A replica is told apart by its component; the caches are one a server.
    assert [m.name for m in members] == ["Note", None, None]
    # Main has no method cache.
    assert [m.kind for m in system.main.consistency.members()] == ["replicas", "query_cache"]


@pytest.mark.parametrize("level", [3, 4, 5, 6])
def test_crash_empties_every_chain_member_and_keeps_its_counters(level):
    env, system = tiny_system(PatternLevel(level))
    edge = system.servers["edge1"]

    def traffic():
        yield from _call(env, system, "edge1", "read_note", 1)
        yield from _call(env, system, "edge1", "read_note", 1)
        yield from _call(env, system, "edge1", "notes_of", "author1")
        yield from _call(env, system, "edge1", "notes_of", "author1")

    run_process(env, traffic())
    members = edge.consistency.members()
    kinds = ["replicas", "query_cache", "method_cache"]
    assert [m.kind for m in members] == kinds[: {3: 1, 4: 2, 5: 2, 6: 3}[level]]
    replica = edge.readonly_container("Note")
    assert replica.cached_keys() == {1} and replica.is_fresh(1)
    if level >= 4:
        assert edge.query_cache.is_fresh("tiny.notes_of", ("author1",))
    if level == 6:
        assert edge.method_cache.entry_count() == 2
    before = {m: m.counters() for m in members}
    assert all(before.values())  # every member has counted something

    edge.crash()

    assert replica.cached_keys() == set() and not replica.is_fresh(1)
    if level >= 4:
        assert not edge.query_cache.is_fresh("tiny.notes_of", ("author1",))
    if level == 6:
        assert edge.method_cache.entry_count() == 0
        # The one counter a crash moves: the whole-cache drop it caused.
        before[edge.method_cache]["drops"] += 1
        assert edge.method_cache.stats.drops == 1
    assert {m: m.counters() for m in members} == before


def test_canned_level6_mode_is_bounded_strict_under_sync():
    env, system = _level6_system()
    assert not system.servers["edge1"].method_cache.strict
    env, system = _strict_system()
    assert system.servers["edge1"].method_cache.strict


def test_plan_describe_lists_method_caches():
    env, system = _level6_system()
    assert "method cache for NotesFacade on: edge1, edge2" in system.plan.describe()


# ---------------------------------------------------------------------------
# The cached call path
# ---------------------------------------------------------------------------


def test_second_identical_call_is_a_hit():
    env, system = _strict_system()
    cache = system.servers["edge1"].method_cache

    def scenario():
        first = yield from _call(env, system, "edge1", "read_note", 1)
        second = yield from _call(env, system, "edge1", "read_note", 1)
        return first, second

    first, second = run_process(env, scenario())
    assert first == second == "note text 1"
    assert cache.stats.misses == 1
    assert cache.stats.hits == 1
    assert cache.stats.stores == 1
    assert cache.entry_count() == 1


def test_distinct_args_are_distinct_entries():
    env, system = _strict_system()
    cache = system.servers["edge1"].method_cache

    def scenario():
        yield from _call(env, system, "edge1", "read_note", 1)
        yield from _call(env, system, "edge1", "read_note", 2)

    run_process(env, scenario())
    assert cache.stats.misses == 2
    assert cache.entry_count() == 2


def test_footprints_are_learned_from_the_jdbc_layer():
    env, system = _strict_system()
    cache = system.servers["edge1"].method_cache

    def scenario():
        yield from _call(env, system, "edge1", "read_note", 1)
        yield from _call(env, system, "edge1", "notes_of", "author1")

    run_process(env, scenario())
    # read_note goes through the Note replica (mapped table), notes_of
    # through the query cache (tables parsed from its SQL) — both funnel
    # into the same learned footprint, never hand-declared.
    assert cache.footprint_of("NotesFacade", "read_note") == ("notes",)
    assert cache.footprint_of("NotesFacade", "notes_of") == ("notes",)


def test_cached_result_is_isolated_from_caller_mutation():
    env, system = _strict_system()

    def scenario():
        rows = yield from _call(env, system, "edge1", "notes_of", "author1")
        rows[0]["text"] = "mutated by caller"
        rows.append({"bogus": True})
        again = yield from _call(env, system, "edge1", "notes_of", "author1")
        return again

    again = run_process(env, scenario())
    assert all(row.get("text") != "mutated by caller" for row in again)
    assert all("bogus" not in row for row in again)


def test_writing_method_is_never_cached_and_recorded_as_r7():
    env, system = _strict_system()
    # Misdeclare the writing method as cacheable (on main, where writes
    # are legal); the cache must catch it at runtime.
    cache = system.main.enable_method_cache(mode=UpdateMode.SYNC)
    cache.register("NotesFacade", ["write_note"])

    def scenario():
        yield from _call(env, system, "main", "write_note", 1, "v1")
        yield from _call(env, system, "main", "write_note", 1, "v2")
        text = yield from _call(env, system, "main", "read_note", 1)
        return text

    assert run_process(env, scenario()) == "v2"
    assert cache.stats.rejected_stores == 1  # second call bypassed the cache
    assert cache.write_violations[("NotesFacade", "write_note")] == ("notes",)
    report = check_rules(system)
    violations = report.violations_of("R7")
    assert violations and "write_note" in violations[0].subject


class _EchoBean(StatelessSessionBean):
    def echo(self, ctx, value):
        return value
        yield  # pragma: no cover


def test_unhashable_args_fall_through_to_direct_invocation():
    env, system = _strict_system()
    server = system.servers["edge1"]
    cache = server.method_cache
    container = server.deploy(
        ComponentDescriptor(
            name="Echo",
            kind=ComponentKind.STATELESS_SESSION,
            impl=_EchoBean,
            cached_methods=("echo",),
        )
    )
    ctx = _ctx(env, server)
    # Called once before the cache learns of it: the plan this makes
    # must not outlive the registration.
    assert run_process(env, container.invoke(ctx, "echo", (1,))) == 1
    cache.register("Echo", ("echo",))

    # A list argument is unhashable: the call still works, nothing cached.
    assert cache.find("Echo", "echo", (["unhashable"],), env.now) == (None, None)
    result = run_process(env, container.invoke(ctx, "echo", (["unhashable"],)))
    assert result == ["unhashable"]
    assert cache.entry_count() == 0
    assert cache.stats.stores == cache.stats.misses == cache.stats.hits == 0

    # ... while a hashable one is intercepted: a miss, then a hit.
    assert run_process(env, container.invoke(ctx, "echo", (2,))) == 2
    assert run_process(env, container.invoke(ctx, "echo", (2,))) == 2
    assert (cache.stats.misses, cache.stats.stores, cache.stats.hits) == (1, 1, 1)
    assert container.invocations == 4


# ---------------------------------------------------------------------------
# Invalidation over the shared bus
# ---------------------------------------------------------------------------


def test_strict_commit_invalidates_before_returning():
    env, system = _strict_system()
    cache = system.servers["edge1"].method_cache

    def scenario():
        before = yield from _call(env, system, "edge1", "read_note", 1)
        yield from _call(env, system, "main", "write_note", 1, "rewritten")
        after = yield from _call(env, system, "edge1", "read_note", 1)
        return before, after

    before, after = run_process(env, scenario())
    assert before == "note text 1"
    assert after == "rewritten"
    assert cache.stats.invalidations >= 1
    assert cache.stats.stale_serves == 0


def test_bounded_commit_invalidates_after_jms_delivery():
    env, system = _level6_system()
    cache = system.servers["edge1"].method_cache

    def scenario():
        yield from _call(env, system, "edge1", "read_note", 1)
        yield from _call(env, system, "main", "write_note", 1, "async-rewrite")

    run_process(env, scenario())  # run() drains JMS deliveries too
    assert cache.stats.invalidations >= 1
    assert cache.stats.staleness_events >= 1
    assert cache.stats.staleness_total_ms > 0.0

    def read_after():
        text = yield from _call(env, system, "edge1", "read_note", 1)
        return text

    assert run_process(env, read_after()) == "async-rewrite"


def test_bounded_hit_inside_the_window_counts_as_stale_serve():
    env, system = _level6_system()
    cache = system.servers["edge1"].method_cache

    def scenario():
        yield from _call(env, system, "edge1", "read_note", 1)
        yield from _call(env, system, "main", "write_note", 1, "stale-window")
        # Read again before the JMS invalidation lands at edge1: a
        # bounded-mode hit inside the propagation window.
        stale = yield from _call(env, system, "edge1", "read_note", 1)
        return stale

    assert run_process(env, scenario()) == "note text 1"
    assert cache.stats.stale_serves == 1


def test_sequence_gap_drops_the_whole_cache():
    env, system = _strict_system()
    cache = system.servers["edge1"].method_cache

    def seed():
        yield from _call(env, system, "edge1", "read_note", 1)

    run_process(env, seed())
    assert cache.entry_count() == 1
    assert cache._last_seq == 0
    gap = UpdatePayload(
        events=[], invalidations=[], query_refreshes=[],
        tables=["unrelated"], sent_at=env.now, seq=3,
    )
    cache.apply(None, gap)
    assert cache.stats.seq_gaps == 1
    assert cache.stats.drops == 1
    assert cache.entry_count() == 0
    assert cache._last_seq == 3


def test_strict_lease_expiry_refuses_hits():
    env, system = _strict_system()
    cache = system.servers["edge1"].method_cache

    def scenario():
        yield from _call(env, system, "edge1", "read_note", 1)
        # No payloads arrive while simulated time sails past the lease.
        yield cache.lease_ms + 1.0
        yield from _call(env, system, "edge1", "read_note", 1)

    run_process(env, scenario())
    assert cache.stats.hits == 0
    assert cache.stats.misses == 2


def test_crash_drops_method_cache_state():
    env, system = _strict_system()
    cache = system.servers["edge1"].method_cache

    def seed():
        yield from _call(env, system, "edge1", "read_note", 1)

    run_process(env, seed())
    assert cache.entry_count() == 1
    system.servers["edge1"].crash()
    assert cache.entry_count() == 0
    assert cache.stats.drops == 1


def test_eviction_updates_secondary_indexes():
    env, system = _strict_system()
    cache = system.servers["edge1"].method_cache
    cache._entries = LruCache(1)  # shrink to force eviction

    def scenario():
        yield from _call(env, system, "edge1", "read_note", 1)
        yield from _call(env, system, "edge1", "read_note", 2)

    run_process(env, scenario())
    assert cache.stats.evictions == 1
    assert cache.entry_count() == 1
    # The evicted key must be gone from the by-table index too.
    keys = cache._by_table.get("notes", set())
    assert keys == {("NotesFacade", "read_note", (2,))}


def test_mark_missed_marks_overlapping_entries_compromised():
    env, system = _strict_system()
    cache = system.servers["edge1"].method_cache

    def seed():
        yield from _call(env, system, "edge1", "read_note", 1)

    run_process(env, seed())
    lost = UpdatePayload(
        events=[], invalidations=[], query_refreshes=[], tables=["notes"]
    )
    cache.mark_missed(lost, env.now)
    assert cache.stats.missed_payloads == 1
    assert ("NotesFacade", "read_note", (1,)) in cache._compromised


def test_stats_as_dict_has_all_counters():
    env, system = _strict_system()
    snapshot = system.servers["edge1"].method_cache.stats.as_dict()
    assert set(snapshot) == {
        "hits", "misses", "stores", "evictions", "invalidations",
        "stale_serves", "seq_gaps", "drops", "rejected_stores",
        "missed_payloads", "staleness_events", "staleness_total_ms",
        "staleness_max_ms",
    }
