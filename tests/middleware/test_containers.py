"""Unit tests for session and entity containers (via the tiny app)."""

import pytest

from repro.core.patterns import PatternLevel
from repro.middleware.context import InvocationContext, RequestInfo
from repro.middleware.ejb import BeanError
from tests.helpers import in_transaction, run_process, tiny_system


def _ctx(env, server, page="Notes", session="s1"):
    return InvocationContext(
        env=env,
        server=server,
        request=RequestInfo(
            page=page, client_group="test", session_id=session, client_node="client-main-0"
        ),
        costs=server.costs,
        trace=server.trace,
    )


@pytest.fixture
def system_level3():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    return env, system


# ---------------------------------------------------------------------------
# Stateless session container
# ---------------------------------------------------------------------------


def test_stateless_invocation_returns_value(system_level3):
    env, system = system_level3
    main = system.main
    ctx = _ctx(env, main)

    def proc():
        facade = yield from main.lookup(ctx, "NotesFacade")
        text = yield from facade.call(ctx, "read_note", 1)
        return text

    assert run_process(env, proc()) == "note text 1"


def test_stateless_pool_reuses_instances(system_level3):
    env, system = system_level3
    main = system.main
    container = main.container("NotesFacade")
    ctx = _ctx(env, main)

    def proc():
        facade = yield from main.lookup(ctx, "NotesFacade")
        for note_id in (1, 2, 3):
            yield from facade.call(ctx, "read_note", note_id)

    run_process(env, proc())
    assert container.invocations == 3
    assert container.instances_created == 1


def test_stateless_missing_method_raises(system_level3):
    env, system = system_level3
    main = system.main
    ctx = _ctx(env, main)

    def proc():
        facade = yield from main.lookup(ctx, "NotesFacade")
        yield from facade.call(ctx, "no_such_method")

    with pytest.raises(BeanError):
        run_process(env, proc())


def test_transaction_rolls_back_on_bean_exception(system_level3):
    env, system = system_level3
    main = system.main
    ctx = _ctx(env, main)
    database = system.db_server.database

    def proc():
        facade = yield from main.lookup(ctx, "NotesFacade")
        # create succeeds, then a second create with the same key fails —
        # the whole container-managed transaction must roll back.
        try:
            note_home = yield from main.lookup(ctx, "Note", for_update=True)

            def body(inner):
                yield from note_home.call(inner, "create", {"id": 100, "author": "x", "text": "a"})
                yield from note_home.call(inner, "create", {"id": 100, "author": "x", "text": "b"})

            yield from in_transaction(ctx, body)
        except Exception:
            pass

    run_process(env, proc())
    count = database.execute("SELECT COUNT(*) AS n FROM notes WHERE id = 100").scalar()
    assert count == 0


# ---------------------------------------------------------------------------
# Entity container
# ---------------------------------------------------------------------------


def test_entity_read_loads_once_per_transaction(system_level3):
    env, system = system_level3
    main = system.main
    container = main.container("Note")
    ctx = _ctx(env, main)

    def proc():
        home = yield from main.lookup(ctx, "Note", for_update=True)

        def body(inner):
            yield from home.entity(5).call(inner, "get_text")
            yield from home.entity(5).call(inner, "get_text")  # cached in tx

        yield from in_transaction(ctx, body)

    run_process(env, proc())
    assert container.loads == 1


def test_entity_write_stores_at_commit(system_level3):
    env, system = system_level3
    main = system.main
    container = main.container("Note")
    ctx = _ctx(env, main)
    database = system.db_server.database

    def proc():
        facade = yield from main.lookup(ctx, "NotesFacade")
        yield from facade.call(ctx, "write_note", 3, "updated")

    run_process(env, proc())
    assert container.stores == 1
    assert (
        database.execute("SELECT text FROM notes WHERE id = 3").scalar() == "updated"
    )


def test_entity_clean_instance_skips_store_when_optimized(system_level3):
    env, system = system_level3
    main = system.main
    container = main.container("Note")
    assert main.costs.store_on_read_only_tx is False
    ctx = _ctx(env, main)

    def proc():
        facade = yield from main.lookup(ctx, "NotesFacade")
        yield from facade.call(ctx, "read_note", 4)

    run_process(env, proc())
    assert container.stores == 0
    assert container.skipped_stores == 1


def test_entity_finder_returns_primary_keys(system_level3):
    env, system = system_level3
    main = system.main
    ctx = _ctx(env, main)

    def proc():
        home = yield from main.lookup(ctx, "Note", for_update=True)
        keys = yield from home.find(ctx, "find_by_author", "author1")
        return keys

    keys = run_process(env, proc())
    assert keys == [1, 4, 7, 10]


def test_entity_unknown_finder_rejected(system_level3):
    env, system = system_level3
    main = system.main
    ctx = _ctx(env, main)

    def proc():
        home = yield from main.lookup(ctx, "Note", for_update=True)
        yield from home.find(ctx, "find_by_nothing", 1)

    with pytest.raises(BeanError):
        run_process(env, proc())


def test_entity_create_and_remove(system_level3):
    env, system = system_level3
    main = system.main
    ctx = _ctx(env, main)
    database = system.db_server.database

    def proc():
        facade = yield from main.lookup(ctx, "NotesFacade")
        yield from facade.call(ctx, "create_note", 200, "author9", "fresh")

    run_process(env, proc())
    assert database.execute("SELECT text FROM notes WHERE id = 200").scalar() == "fresh"

    def remove():
        home = yield from main.lookup(ctx, "Note", for_update=True)

        def body(inner):
            yield from home.call(inner, "remove", 200)

        yield from in_transaction(ctx, body)

    # No application removes an entity, so homes offer no remove.
    with pytest.raises(BeanError, match="no finder 'remove'"):
        run_process(env, remove())
    assert database.execute("SELECT text FROM notes WHERE id = 200").scalar() == "fresh"


def test_entity_missing_row_raises(system_level3):
    env, system = system_level3
    main = system.main
    ctx = _ctx(env, main)

    def proc():
        facade = yield from main.lookup(ctx, "NotesFacade")
        yield from facade.call(ctx, "read_note", 9999)

    with pytest.raises(BeanError):
        run_process(env, proc())


def test_cmp_finder_batching_avoids_n_plus_1(system_level3):
    """With finder_loads_rows, reading found beans does not reload them."""
    env, system = system_level3
    main = system.main
    container = main.container("Note")
    batching = main.costs.variant(finder_loads_rows=True)
    ctx = InvocationContext(
        env=env,
        server=main,
        request=RequestInfo("Notes", "test", "s1", "client-main-0"),
        costs=batching,
    )

    def proc():
        home = yield from main.lookup(ctx, "Note", for_update=True)

        def body(inner):
            keys = yield from home.find(inner, "find_by_author", "author1")
            for key in keys:
                yield from home.entity(key).call(inner, "get_text")

        yield from in_transaction(ctx, body)

    run_process(env, proc())
    assert container.loads == 0  # all rows came from the finder batch


def test_bmp_n_plus_1_without_batching(system_level3):
    env, system = system_level3
    main = system.main
    container = main.container("Note")
    assert main.costs.finder_loads_rows is False
    ctx = _ctx(env, main)

    def proc():
        home = yield from main.lookup(ctx, "Note", for_update=True)

        def body(inner):
            keys = yield from home.find(inner, "find_by_author", "author1")
            for key in keys:
                yield from home.entity(key).call(inner, "get_text")

        yield from in_transaction(ctx, body)

    run_process(env, proc())
    assert container.loads == 4  # one ejbLoad per found bean
