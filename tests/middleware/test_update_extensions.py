"""Tests for the §4.3 propagation optimization: delta pushes, which ship
only the fields a write changed."""

from repro.core.patterns import PatternLevel
from repro.middleware.context import InvocationContext, RequestInfo, UpdateEvent
from repro.middleware.marshalling import sizeof
from tests.helpers import run_process, tiny_system


def _ctx(env, server):
    return InvocationContext(
        env=env,
        server=server,
        request=RequestInfo("Notes", "test", "s", "client-main-0"),
        costs=server.costs,
    )


def _write(env, system, note_id, text):
    main = system.main
    ctx = _ctx(env, main)

    def proc():
        facade = yield from main.lookup(ctx, "NotesFacade")
        yield from facade.call(ctx, "write_note", note_id, text)

    return proc()


# ---------------------------------------------------------------------------
# Delta push
# ---------------------------------------------------------------------------


def _delta_system():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    for server in system.servers.values():
        server.costs = server.costs.variant(push_delta_only=True)
    system.warm_replicas()
    return env, system


def test_delta_push_preserves_zero_staleness():
    env, system = _delta_system()

    def scenario():
        yield from _write(env, system, 1, "delta-v1")
        edge = system.servers["edge1"]
        ctx = _ctx(env, edge)
        facade = yield from edge.lookup(ctx, "NotesFacade")
        text = yield from facade.call(ctx, "read_note", 1)
        return text

    assert run_process(env, scenario()) == "delta-v1"


def test_delta_push_keeps_unchanged_fields():
    env, system = _delta_system()
    run_process(env, _write(env, system, 1, "delta-v2"))
    replica = system.servers["edge1"].readonly_container("Note")
    cached = replica._cache[1]
    assert cached["text"] == "delta-v2"
    assert cached["author"] == "author1"  # untouched field survived the merge


def test_delta_event_is_smaller_than_full_state():
    full = UpdateEvent(
        "Note", "notes", 1,
        {"id": 1, "author": "author1", "text": "x" * 300},
        changed_fields=("text",),
    )
    delta = UpdateEvent(
        "Note", "notes", 1, {"text": "y"}, changed_fields=("text",), partial=True
    )
    assert sizeof(delta) < sizeof(full)


def test_delta_to_cold_replica_falls_back_to_invalidation():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    replica = system.servers["edge1"].readonly_container("Note")
    assert 1 not in replica.cached_keys()  # cold: never saw the full row
    replica.apply_update(
        UpdateEvent("Note", "notes", 1, {"text": "orphan delta"}, partial=True)
    )
    assert not replica.is_fresh(1)  # must pull the full row on next use
    ctx = _ctx(env, system.servers["edge1"])

    def read():
        home = yield from system.servers["edge1"].lookup(ctx, "Note")
        text = yield from home.entity(1).call(ctx, "get_text")
        return text

    assert run_process(env, read()) == "note text 1"  # pulled authoritative state
