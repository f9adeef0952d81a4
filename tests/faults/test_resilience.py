"""Middleware resilience under injected faults: RMI retries/timeouts, JMS
redelivery and dead-lettering, staleness accounting, and crash recovery."""

from pathlib import Path

import pytest

from repro.apps import rubis
from repro.core.distribution import distribute
from repro.core.patterns import PatternLevel
from repro.core.policy import load_policy
from repro.faults.stats import ResilienceStats
from repro.middleware.context import InvocationContext, RequestInfo
from repro.middleware.resilience import RETRYABLE_ERRORS, RmiTimeout, backoff_delay
from repro.middleware.web import WebRequest, http_get
from repro.rdbms.cluster import ClusterDataSource
from repro.simnet.kernel import Environment
from repro.simnet.network import LinkDown
from repro.simnet.rng import Streams
from repro.simnet.topology import build_testbed
from tests.helpers import run_process, tiny_system

POLICIES = Path(__file__).resolve().parents[2] / "policies"


def _ctx(env, server, session="s1", client="client-main-0"):
    return InvocationContext(
        env=env,
        server=server,
        request=RequestInfo("Notes", "test", session, client),
        costs=server.costs,
        trace=server.trace,
    )


# ---------------------------------------------------------------------------
# Pure helpers
# ---------------------------------------------------------------------------


def test_backoff_delay_doubles_then_caps():
    delays = [backoff_delay(50.0, 2000.0, attempt) for attempt in range(1, 9)]
    assert delays == [50.0, 100.0, 200.0, 400.0, 800.0, 1600.0, 2000.0, 2000.0]


def test_backoff_delay_rejects_attempt_zero():
    with pytest.raises(ValueError):
        backoff_delay(50.0, 2000.0, 0)


def test_retryable_errors_contains_link_down():
    assert LinkDown in RETRYABLE_ERRORS


def test_staleness_windows_open_once_and_close_once():
    stats = ResilienceStats()
    stats.mark_stale("edge1", 100.0)
    stats.mark_stale("edge1", 150.0)  # no-op: window already open
    stats.mark_fresh("edge1", 400.0)
    assert stats.staleness_ms == {"edge1": 300.0}
    stats.mark_fresh("edge1", 500.0)  # no-op: no open window
    assert stats.staleness_ms == {"edge1": 300.0}


def test_finalize_closes_open_windows_idempotently():
    stats = ResilienceStats()
    stats.mark_stale("edge1", 100.0)
    stats.mark_stale("edge2", 200.0)
    stats.finalize(1000.0)
    stats.finalize(2000.0)  # idempotent: windows already closed
    assert stats.staleness_ms == {"edge1": 900.0, "edge2": 800.0}


def test_counters_name_only_the_nonzero_ones():
    stats = ResilienceStats()
    assert stats.counters() == {}
    stats.rmi_retries = 2
    stats.server_crashes = 1
    assert stats.counters() == {
        "resilience.rmi_retries": 2,
        "resilience.server_crashes": 1,
    }
    assert sorted(vars(stats)) == sorted(
        [*ResilienceStats.COUNTERS, "_stale_since", "staleness_ms"]
    )


# ---------------------------------------------------------------------------
# RMI timeouts and retries
# ---------------------------------------------------------------------------


def _notes_request(session="s1"):
    return WebRequest(
        page="Notes",
        params={"note_id": 1},
        session_id=session,
        client_node="client-edge1-0",
    )


def test_rmi_retries_exhaust_into_timeout():
    """A partitioned WAN link turns a remote facade call into RmiTimeout
    after the full retry budget, with every retry counted."""
    env, system = tiny_system(PatternLevel.REMOTE_FACADE)
    edge = system.servers["edge1"]
    link = system.testbed.network.link_between("router", "edge1")

    # Warm run: populates the home cache so the next request reaches the
    # retrying RemoteRef.call path instead of failing in the JNDI lookup.
    response = run_process(env, http_get(env, edge, _notes_request()))
    assert response.status == 200

    link.set_down(True)

    def failing():
        try:
            yield from http_get(env, edge, _notes_request("s2"))
        except RmiTimeout as error:
            return error
        raise AssertionError("expected RmiTimeout")

    error = run_process(env, failing())
    assert error.attempts == edge.costs.rmi_max_retries + 1
    assert error.src == "edge1" and error.dst == "main"
    assert isinstance(error.__cause__, RETRYABLE_ERRORS)
    stats = system.resilience
    assert stats.rmi_retries == edge.costs.rmi_max_retries
    assert stats.rmi_timeouts == 1


def test_rmi_retry_succeeds_after_link_heals():
    env, system = tiny_system(PatternLevel.REMOTE_FACADE)
    edge = system.servers["edge1"]
    link = system.testbed.network.link_between("router", "edge1")
    run_process(env, http_get(env, edge, _notes_request()))  # warm the caches

    link.set_down(True)

    def heal():
        # Backoffs run 50/100/200 ms, so the third attempt (~150 ms in)
        # lands after the link is restored.
        yield env.timeout(120.0)
        link.set_down(False)

    env.process(heal())
    response = run_process(env, http_get(env, edge, _notes_request("s2")))
    assert response.status == 200
    assert response.data == {"text": "note text 1"}
    stats = system.resilience
    assert stats.rmi_retries >= 1
    assert stats.rmi_timeouts == 0


# ---------------------------------------------------------------------------
# JMS redelivery, dead letters and replica staleness
# ---------------------------------------------------------------------------


def test_jms_dead_letters_and_staleness_under_partition():
    env, system = tiny_system(PatternLevel.ASYNC_UPDATES)
    system.warm_replicas()
    main = system.main
    link = system.testbed.network.link_between("router", "edge1")
    link.set_down(True)  # never healed: every redelivery to edge1 fails
    ctx = _ctx(env, main)

    def write():
        facade = yield from main.lookup(ctx, "NotesFacade")
        yield from facade.call(ctx, "write_note", 1, "unreachable-v2")

    run_process(env, write())  # drains the redelivery backoffs too

    jms = main.jms
    costs = main.costs
    stats = system.resilience
    assert stats.jms_redeliveries >= costs.jms_max_redeliveries
    assert any(server == "edge1" for _topic, _msg, server in jms.dead_letters)
    # edge2 is still reachable: its copy of the update must have landed.
    assert all(server != "edge2" for _topic, _msg, server in jms.dead_letters)

    # Every redelivery belonged to a delivery that ended dead-lettered.
    assert stats.jms_redeliveries == costs.jms_max_redeliveries * len(jms.dead_letters)
    assert stats.jms_dead_lettered == len(jms.dead_letters)
    assert stats.dropped_updates >= 1
    stats.finalize(env.now)
    assert stats.staleness_ms.get("edge1", 0.0) > 0.0
    assert stats.staleness_ms.get("edge2", 0.0) == 0.0


def test_sync_push_failure_counts_dropped_update():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    system.warm_replicas()
    main = system.main
    link = system.testbed.network.link_between("router", "edge1")
    link.set_down(True)
    ctx = _ctx(env, main)

    def write():
        facade = yield from main.lookup(ctx, "NotesFacade")
        yield from facade.call(ctx, "write_note", 1, "half-delivered")

    run_process(env, write())
    stats = system.resilience
    assert stats.sync_push_failures >= 1
    assert stats.dropped_updates >= 1
    stats.finalize(env.now)
    assert stats.staleness_ms.get("edge1", 0.0) > 0.0


# ---------------------------------------------------------------------------
# Crash semantics
# ---------------------------------------------------------------------------


def test_crash_drains_volatile_state_and_restart_comes_back_cold():
    env, system = tiny_system(PatternLevel.QUERY_CACHING)
    system.warm_replicas()
    edge = system.servers["edge1"]
    replica = edge.readonly_container("Note")
    run_process(env, http_get(env, edge, _notes_request("crash-session")))
    assert replica.cached_keys()
    # The tiny servlet is stateless; stash conversational state by hand.
    edge.web_sessions.get("crash-session")["cart"] = ["note-1"]
    assert len(edge.web_sessions) >= 1

    edge.crash()
    assert not edge.available
    assert system.resilience.server_crashes == 1
    assert not replica.cached_keys()
    assert len(edge.web_sessions) == 0

    edge.restart()
    assert edge.available
    # Cold restart: normal traffic refills the replica cache.
    response = run_process(env, http_get(env, edge, _notes_request("s3")))
    assert response.status == 200
    assert replica.cached_keys()


def test_http_get_refuses_a_crashed_server():
    from repro.middleware.web import ServerUnavailable

    env, system = tiny_system(PatternLevel.QUERY_CACHING)
    edge = system.servers["edge1"]
    edge.crash()

    def probe():
        try:
            yield from http_get(env, edge, _notes_request())
        except ServerUnavailable:
            return "refused"
        raise AssertionError("expected ServerUnavailable")

    assert run_process(env, probe()) == "refused"


def _connections_opened(source):
    """Physical JDBC connections a data source opened (a cluster source
    holds one plain source per raft member it talks to)."""
    if isinstance(source, ClusterDataSource):
        return sum(member.connections_opened for member in source._sources.values())
    return source.connections_opened


@pytest.mark.parametrize("policy_file", ["sharded-replicated.json", None])
def test_crash_drops_the_jdbc_pool_with_or_without_a_data_tier(policy_file):
    """A crash loses the server's data source and its pooled connections,
    whether the statements go to one database or into the data tier."""
    streams = Streams(7)
    database, catalog = rubis.populate_rubis(
        streams, {"users": 20, "items": 20, "bids_per_item_max": 1, "comments_per_user_max": 1}
    )
    policy = PatternLevel.STATEFUL_CACHING  # level 3: one database, no data tier
    if policy_file is not None:
        policy = load_policy(str(POLICIES / policy_file))
    env = Environment()
    application = rubis.build_application(PatternLevel.STATEFUL_CACHING, catalog=catalog)
    system = distribute(
        env, build_testbed(env), application, policy, database, streams=streams
    )
    main = system.main

    def statements(count):
        source = main.datasource()
        for _ in range(count):
            connection = yield from source.connect()
            yield from connection.execute("SELECT * FROM users WHERE id = ?", (1,))
            connection.close()
        return source

    before = run_process(env, statements(2))
    assert _connections_opened(before) == 1  # the second statement reuses the pool
    main.crash()
    main.restart()
    after = run_process(env, statements(1))
    assert after is not before
    assert _connections_opened(after) == 1
