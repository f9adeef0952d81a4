"""Shared read-only rows and size-once update messages.

Every row is a shared read-only value, stored rows included: storage
replaces a row on update and never changes one in place, so a stored
row, a query result, a cached result set, a pushed refresh, a replica
entry and an update event's state may all be one dict.  The guard test
below makes those rows refuse mutation and runs whole cells on them; a
writer that still changes a shared row in place raises instead of
corrupting a cache, an image or another database.

An update payload is walked once however many pushes and deliveries
carry it, and the size it reports is the one ``sizeof`` gives the same
body.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.middleware.entity as entity_module
import repro.rdbms.executor as executor_module
from repro.apps.petstore.facades import CatalogBean
from repro.core.patterns import PAPER_LEVELS, PatternLevel
from repro.experiments.calibration import default_workload
from repro.experiments.runner import RunSpec, run_configuration
from repro.middleware import marshalling
from repro.middleware.context import InvocationContext, RequestInfo, UpdateEvent
from repro.middleware.jms import Message
from repro.middleware.updates import UPDATE_TOPIC, UPDATER_FACADE, UpdatePayload
from repro.rdbms.storage import Table
from repro.workload.openloop import OpenLoopConfig
from tests.helpers import run_process, tiny_system
from tests.middleware.test_marshalling_naming import _oracle_sizeof


class ReadOnlyRow(dict):
    """A row that refuses every in-place change."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("a shared row is read-only")

    __setitem__ = __delitem__ = __ior__ = _refuse
    update = pop = popitem = clear = setdefault = _refuse


def test_the_guard_row_refuses_every_mutator():
    row = ReadOnlyRow(a=1)
    for mutate in (
        lambda: row.__setitem__("a", 2),
        lambda: row.__delitem__("a"),
        lambda: row.update(a=2),
        lambda: row.pop("a"),
        lambda: row.popitem(),
        lambda: row.clear(),
        lambda: row.setdefault("b", 2),
    ):
        with pytest.raises(TypeError):
            mutate()
    assert row == {"a": 1}
    assert marshalling.sizeof(row) == marshalling.sizeof({"a": 1})


class _GuardedResultSet(executor_module.ResultSet):
    __slots__ = ()

    def __init__(self, columns, rows, *args, **kwargs):
        super().__init__(columns, [ReadOnlyRow(row) for row in rows], *args, **kwargs)


def _guarded_event(**fields):
    return UpdateEvent(**{**fields, "state": ReadOnlyRow(fields["state"])})


_insert, _update, _load_image = Table.insert, Table.update, Table.load_image


def _guarded_insert(self, values):
    row = _insert(self, values)
    frozen = self._rows[row[self.schema.primary_key]] = ReadOnlyRow(row)
    return frozen


def _guarded_update(self, key, changes):
    before = _update(self, key, changes)
    self._rows[key] = ReadOnlyRow(self._rows[key])
    return before


def _guarded_load_image(self, rows):
    _load_image(self, map(ReadOnlyRow, rows))


D20 = {"workload": default_workload(duration_ms=20_000.0, warmup_ms=5_000.0)}
GUARDED_CELLS = [
    *((app, level, D20) for app in ("petstore", "rubis") for level in PAPER_LEVELS),
    ("rubis", PatternLevel.METHOD_CACHING, D20),
    (
        "rubis",
        PatternLevel.ASYNC_UPDATES,
        {
            "openloop": OpenLoopConfig(
                duration_ms=12_000.0,
                warmup_ms=3_000.0,
                session_rate_per_s=6.0,
                browser_fraction=0.2,
            )
        },
    ),
]


def _observed(app, level, options):
    result = run_configuration(app, level, RunSpec(**options))
    return {
        "measurements": result.measurements,
        "cache_stats": result.cache_stats,
        "sequence": result.system.env.stats()["sequence"],
        "transfers": result.system.testbed.network.total_transfers,
    }


def test_cells_run_unchanged_on_read_only_rows(monkeypatch):
    """Rows are frozen where they are born: the rows storage stores (by
    insert, update or image load), executor results and update event
    snapshots.  Every cell completes, and observes exactly what it
    observes on plain dicts."""
    plain = [_observed(*cell) for cell in GUARDED_CELLS]
    monkeypatch.setattr(executor_module, "ResultSet", _GuardedResultSet)
    monkeypatch.setattr(entity_module, "UpdateEvent", _guarded_event)
    monkeypatch.setattr(Table, "insert", _guarded_insert)
    monkeypatch.setattr(Table, "update", _guarded_update)
    monkeypatch.setattr(Table, "load_image", _guarded_load_image)
    for cell, expected in zip(GUARDED_CELLS, plain):
        assert _observed(*cell) == expected, cell[:2]


def test_the_catalog_search_hands_on_the_executors_rows():
    """The Pet Store search façade returns the result's own rows, so the
    guard above covers the search servlet too."""
    result = executor_module.ResultSet(
        ["id", "name", "list_price"], [ReadOnlyRow(id=1, name="Dog", list_price=9.5)]
    )

    class MainServer:
        is_main = True

        def db_execute(self, ctx, statement, params):
            assert params == ("%dog%", "%dog%")
            return result
            yield  # a generator, as the server's is

    search = CatalogBean().search(SimpleNamespace(server=MainServer()), "dog")
    with pytest.raises(StopIteration) as done:
        next(search)
    assert done.value.value is result.rows


def test_a_delta_merge_copies_the_shared_entry_on_write():
    """One full event's state is every edge's replica entry; a delta
    push builds each edge a new entry and leaves the shared one alone."""
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    replicas = [system.servers[name].readonly_container("Note") for name in ("edge1", "edge2")]
    state = ReadOnlyRow(id=1, author="author1", text="v1")
    full = UpdateEvent("Note", "notes", 1, state)
    delta = UpdateEvent(
        "Note", "notes", 1, ReadOnlyRow(text="v2"), changed_fields=("text",), partial=True
    )
    for replica in replicas:
        replica.apply_update(full)
        assert replica._cache[1] is state
    replicas[0].apply_update(delta)
    assert replicas[0]._cache[1] == {"id": 1, "author": "author1", "text": "v2"}
    assert replicas[1]._cache[1] is state
    assert state["text"] == "v1"


# ---------------------------------------------------------------------------
# Size once
# ---------------------------------------------------------------------------

_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.text(max_size=10),
)
_rows = st.lists(
    st.dictionaries(st.text(max_size=6), _scalars, max_size=5), max_size=4
)
_params = st.lists(_scalars, max_size=3).map(tuple)
_events = st.builds(
    UpdateEvent,
    component=st.text(max_size=8),
    table=st.text(max_size=8),
    primary_key=st.one_of(st.integers(), st.text(max_size=6)),
    state=st.dictionaries(st.text(max_size=6), _scalars, max_size=5),
    changed_fields=st.lists(st.text(max_size=6), max_size=3).map(tuple),
    inserted=st.booleans(),
    partial=st.booleans(),
)


@settings(max_examples=60, deadline=None)
@given(
    events=st.lists(_events, max_size=3),
    invalidations=st.lists(
        st.tuples(st.text(max_size=8), st.one_of(st.none(), _params)), max_size=3
    ),
    refreshes=st.lists(st.tuples(st.text(max_size=8), _params, _rows), max_size=3),
    tables=st.lists(st.text(max_size=8), max_size=3),
    sent_at=st.one_of(st.none(), st.floats(allow_nan=False)),
    seq=st.one_of(st.none(), st.integers(min_value=0)),
)
def test_a_payload_is_sized_as_sizeof_sizes_its_body(
    events, invalidations, refreshes, tables, sent_at, seq
):
    body = {"events": events, "invalidations": invalidations, "query_refreshes": refreshes}
    if tables:
        body["tables"] = tables
    if sent_at is not None:
        body["sent_at"] = sent_at
    if seq is not None:
        body["seq"] = seq
    expected = 32 + _oracle_sizeof(body)
    assert expected == 32 + marshalling.sizeof(body)
    payload = UpdatePayload(
        events=list(events),
        invalidations=list(invalidations),
        query_refreshes=list(refreshes),
        tables=list(tables),
        sent_at=sent_at,
        seq=seq,
    )
    assert payload.wire_size() == expected
    assert payload.wire_size() == expected  # the kept size
    assert marshalling.sizeof(payload) == expected
    assert Message(topic="t", body=payload).wire_size() == 64 + expected
    with pytest.raises(AttributeError):  # sealed: nothing appends after sizing
        payload.events.append(None)


def test_one_publish_and_two_pushes_walk_the_payload_once(monkeypatch):
    env, system = tiny_system(PatternLevel.ASYNC_UPDATES)
    topic = system.main.jms.topic(UPDATE_TOPIC)
    edges = [(server, mdb) for server, mdb in topic.subscribers if server is not system.main]
    assert len(edges) == 2
    monkeypatch.setattr(topic, "subscribers", edges)
    subscribers = [server for server, _ in edges]
    payload = UpdatePayload(
        events=[
            UpdateEvent(
                component="Note", table="notes", primary_key=1,
                state={"id": 1, "author": "author1", "text": "fresh"},
            )
        ]
    )
    walks = []
    sizeof = marshalling.sizeof

    def counting_sizeof(value, _depth=0):
        if _depth == 0 and type(value) is dict and "query_refreshes" in value:
            walks.append(value)
        return sizeof(value, _depth)

    monkeypatch.setattr(marshalling, "sizeof", counting_sizeof)
    ctx = InvocationContext(
        env=env,
        server=system.main,
        request=RequestInfo("p", "test", "s", "client-main-0"),
        costs=system.main.costs,
    )

    def scenario():
        yield from system.main.jms.publish(ctx, UPDATE_TOPIC, payload)
        for target in subscribers:
            ref = yield from system.main.lookup_at(ctx, UPDATER_FACADE, target)
            yield from ref.call(ctx, "apply_updates", payload)

    run_process(env, scenario())
    assert system.main.jms.topic(UPDATE_TOPIC).delivered == 2
    assert len(walks) == 1
    for target in subscribers:
        replica = target.readonly_container("Note")
        assert replica._cache[1]["text"] == "fresh"
