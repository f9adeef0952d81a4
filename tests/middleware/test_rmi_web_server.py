"""Unit tests for RMI references, the web tier, and AppServer semantics."""

import gc
import weakref

import pytest

from repro.core.patterns import PatternLevel
from repro.middleware.context import InvocationContext, RequestInfo
from repro.middleware.ejb import BeanError
from repro.middleware.naming import NamingError
from repro.middleware.rmi import AccessError, LocalRef, RemoteRef
from repro.middleware.web import WebRequest, http_get
from tests.helpers import run_process, tiny_system


def _ctx(env, server, page="Notes", session="s1"):
    return InvocationContext(
        env=env,
        server=server,
        request=RequestInfo(page, "test", session, "client-main-0"),
        costs=server.costs,
        trace=server.trace,
    )


# ---------------------------------------------------------------------------
# Reference resolution
# ---------------------------------------------------------------------------


def test_local_component_resolves_to_local_ref():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    main = system.main
    ctx = _ctx(env, main)

    def proc():
        ref = yield from main.lookup(ctx, "NotesFacade")
        return ref

    assert isinstance(run_process(env, proc()), LocalRef)


def test_missing_component_resolves_remotely_to_main():
    env, system = tiny_system(PatternLevel.REMOTE_FACADE)
    edge = system.servers["edge1"]
    ctx = _ctx(env, edge)

    def proc():
        ref = yield from edge.lookup(ctx, "NotesFacade")
        return ref

    ref = run_process(env, proc())
    # Level 2: NotesFacade (edge_from_level=3) lives only on main.
    assert isinstance(ref, RemoteRef)
    assert ref.target_server is system.main


def test_read_lookup_prefers_readonly_replica():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    edge = system.servers["edge1"]
    ctx = _ctx(env, edge)

    def proc():
        read_ref = yield from edge.lookup(ctx, "Note")
        write_ref = yield from edge.lookup(ctx, "Note", for_update=True)
        return read_ref, write_ref

    read_ref, write_ref = run_process(env, proc())
    assert isinstance(read_ref, LocalRef)  # the replica
    assert isinstance(write_ref, RemoteRef)  # the central RW container
    assert write_ref.target_server is system.main


def test_central_suffix_forces_main():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    edge = system.servers["edge1"]
    ctx = _ctx(env, edge)

    def proc():
        ref = yield from edge.lookup(ctx, "NotesFacade@central")
        return ref

    ref = run_process(env, proc())
    assert isinstance(ref, RemoteRef)
    assert ref.target_server is system.main


def test_central_suffix_on_main_is_local():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    main = system.main
    ctx = _ctx(env, main)

    def proc():
        ref = yield from main.lookup(ctx, "NotesFacade@central")
        return ref

    assert isinstance(run_process(env, proc()), LocalRef)


def test_unknown_component_raises():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    ctx = _ctx(env, system.main)

    def proc():
        yield from system.main.lookup(ctx, "Ghost")

    with pytest.raises(NamingError):
        run_process(env, proc())


def test_lookup_caches_resolved_refs():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    edge = system.servers["edge1"]
    ctx = _ctx(env, edge)

    def proc():
        first = yield from edge.lookup(ctx, "NotesFacade@central")
        second = yield from edge.lookup(ctx, "NotesFacade@central")
        return first is second

    assert run_process(env, proc()) is True
    assert edge.home_cache.hits >= 1


# ---------------------------------------------------------------------------
# Remote invocation
# ---------------------------------------------------------------------------


def test_remote_call_costs_wan_round_trip():
    env, system = tiny_system(PatternLevel.REMOTE_FACADE)
    edge = system.servers["edge1"]
    ctx = _ctx(env, edge)

    def proc():
        ref = yield from edge.lookup(ctx, "NotesFacade")
        yield from ref.call(ctx, "read_note", 1)  # cold: lookup + stub
        start = env.now
        yield from ref.call(ctx, "read_note", 1)  # warm
        return env.now - start

    warm = run_process(env, proc())
    assert 200.0 < warm < 450.0  # 1 RTT + DGC fraction


def test_local_interface_enforced_over_rmi():
    env, system = tiny_system(PatternLevel.REMOTE_FACADE)
    edge = system.servers["edge1"]
    ctx = _ctx(env, edge)

    def proc():
        ref = yield from edge.lookup(ctx, "Note")  # entity, local-only
        yield from ref.entity(1).call(ctx, "get_text")

    with pytest.raises(AccessError):
        run_process(env, proc())


def test_rmi_calls_recorded_in_trace():
    env, system = tiny_system(PatternLevel.REMOTE_FACADE, with_spans=True)
    edge = system.servers["edge1"]
    ctx = _ctx(env, edge)

    def proc():
        ref = yield from edge.lookup(ctx, "NotesFacade")
        yield from ref.call(ctx, "read_note", 1)

    run_process(env, proc())
    rmi_calls = [span for span in system.trace.by_kind("rmi") if span.wide_area]
    assert len(rmi_calls) == 1
    assert rmi_calls[0].target == "NotesFacade"
    assert rmi_calls[0].page == "Notes"


# ---------------------------------------------------------------------------
# Web tier
# ---------------------------------------------------------------------------


def test_http_get_serves_mapped_page():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    system.warm_replicas()

    def proc():
        request = WebRequest(
            page="Notes", params={"note_id": 1}, session_id="w1",
            client_node="client-main-0",
        )
        response = yield from http_get(env, system.main, request)
        return response

    response = run_process(env, proc())
    assert response.status == 200
    assert response.data == {"text": "note text 1"}


def test_untraced_request_computes_no_trace_arguments(monkeypatch):
    """With no span recorder attached, a page that crosses HTTP, RMI and
    JDBC parses no statement for a label and asks no route for its latency."""
    from repro.middleware import server as server_module

    env, system = tiny_system(PatternLevel.REMOTE_FACADE)
    edge = system.servers["edge1"]

    def forbidden(*args, **kwargs):
        raise AssertionError("trace argument computed on an untraced request")

    monkeypatch.setattr(server_module, "parse_cached", forbidden)
    monkeypatch.setattr(server_module.AppServer, "is_wide_area", forbidden)

    def proc():
        request = WebRequest(
            page="Notes", params={"note_id": 1}, session_id="w1",
            client_node="client-edge1-0",
        )
        response = yield from http_get(env, edge, request)
        return response

    assert run_process(env, proc()).status == 200
    assert system.db_server.statements > 0


def test_http_unmapped_page_rejected():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)

    def proc():
        request = WebRequest(page="Nope", session_id="w1", client_node="client-main-0")
        yield from http_get(env, system.main, request)

    with pytest.raises(BeanError):
        run_process(env, proc())


def test_http_without_keep_alive_costs_two_round_trips():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    system.warm_replicas()

    def proc():
        request = WebRequest(
            page="Notes", params={"note_id": 1}, session_id="w1",
            client_node="client-edge1-0",
        )
        # Edge client to the *edge* server is LAN; go to main instead.
        start = env.now
        response = yield from http_get(env, system.main, request)
        return env.now - start

    elapsed = run_process(env, proc())
    assert elapsed > 2 * 200.0  # handshake RTT + request RTT across the WAN


def test_keep_alive_pool_dies_with_its_network():
    """The keep-alive pool hangs on its Network, so a finished cell's
    network (and through it the whole testbed) is collectable."""
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    system.warm_replicas()
    main = system.main
    main.costs = main.costs.variant(http_keep_alive=True)

    def proc():
        for _ in range(2):
            request = WebRequest(
                page="Notes", params={"note_id": 1}, session_id="w1",
                client_node="client-main-0",
            )
            yield from http_get(env, main, request)

    run_process(env, proc())
    assert main.network.http_pool.reused == 1
    network = weakref.ref(main.network)
    del env, system, main
    gc.collect()
    assert network() is None


def test_http_session_store_per_server():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    store = system.main.web_sessions
    session = store.get("abc")
    session["cart"] = [1]
    assert store.get("abc")["cart"] == [1]
    assert len(store) == 1
    store.discard("abc")
    assert len(store) == 0


def test_entry_server_depends_on_level():
    env, system = tiny_system(PatternLevel.CENTRALIZED)
    assert system.entry_server_for("client-edge1-0") is system.main
    env, system = tiny_system(PatternLevel.REMOTE_FACADE)
    assert system.entry_server_for("client-edge1-0").name == "edge1"


def test_utilization_report_structure():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    report = system.utilization_report()
    assert set(report) >= {"main", "edge1", "edge2"}
    assert all(0.0 <= value <= 1.0 for value in report.values())


def test_dgc_traffic_accompanies_rmi_calls():
    """"more than half of the data traffic incurred by RMI is due to
    distributed garbage collection" — the DGC bytes flow on the wire."""
    env, system = tiny_system(PatternLevel.REMOTE_FACADE)
    edge = system.servers["edge1"]
    ctx = _ctx(env, edge)

    def proc():
        ref = yield from edge.lookup(ctx, "NotesFacade")
        for _ in range(5):
            yield from ref.call(ctx, "read_note", 1)

    run_process(env, proc())
    # Count per-kind on the edge1 WAN link's two directions.
    link = system.testbed.network.route("edge1", "main")[0]
    rmi_bytes = 0
    dgc_bytes = 0
    for src, dst in (("edge1", "router"), ("router", "edge1")):
        hop = link.hop(src, dst)
        rmi_bytes += hop.by_kind.get("rmi", [0, 0])[1]
        dgc_bytes += hop.by_kind.get("dgc", [0, 0])[1]
    assert dgc_bytes > 0
    # The DGC lease traffic approximates the payload traffic in volume
    # (~half of all RMI-related bytes), minus the one-time stub creation.
    assert dgc_bytes > 0.4 * rmi_bytes
