"""Shared test helpers: a minimal application for middleware-level tests.

The "tiny" application has one table (``notes``), one read-mostly entity
bean, one façade, and one servlet — just enough to exercise every
container code path with precise, countable expectations.
"""

from __future__ import annotations

from repro.core.distribution import DeployedSystem, distribute
from repro.core.patterns import PatternLevel
from repro.middleware.context import TransactionContext
from repro.middleware.descriptors import (
    ApplicationDescriptor,
    ComponentDescriptor,
    ComponentKind,
    Persistence,
    QueryCacheDescriptor,
    ReadMostlyDescriptor,
    RefreshMode,
    TxAttribute,
)
from repro.middleware.ejb import EntityBean, Servlet, StatelessSessionBean
from repro.middleware.entity import FinderSpec
from repro.middleware.web import Response
from repro.obs.spans import SpanRecorder
from repro.rdbms.engine import Database
from repro.rdbms.schema import Column, TableSchema
from repro.rdbms.types import INTEGER, TEXT
from repro.simnet.kernel import Environment
from repro.simnet.topology import TestbedConfig, build_testbed

NOTE_COUNT = 12


class NoteBean(EntityBean):
    """A trivial read-mostly entity."""

    FINDERS = {
        "find_by_author": FinderSpec("SELECT * FROM notes WHERE author = ?"),
    }

    def get_text(self, ctx):
        return self.state["text"]

    def set_text(self, ctx, text):
        self.set_field("text", text)

    def bad_write(self, ctx):
        # Used to verify read-only replicas refuse mutation.
        self.set_field("text", "mutated")


class NotesFacadeBean(StatelessSessionBean):
    """Façade over the Note entity plus one aggregate query."""

    def read_note(self, ctx, note_id):
        home = yield from ctx.lookup("Note")
        text = yield from home.entity(note_id).call(ctx, "get_text")
        return text

    def write_note(self, ctx, note_id, text):
        home = yield from ctx.server.lookup(ctx, "Note", for_update=True)
        yield from home.entity(note_id).call(ctx, "set_text", text)
        return True

    def create_note(self, ctx, note_id, author, text):
        home = yield from ctx.server.lookup(ctx, "Note", for_update=True)
        key = yield from home.call(
            ctx, "create", {"id": note_id, "author": author, "text": text}
        )
        return key

    def notes_of(self, ctx, author):
        rows = yield from ctx.server.cached_query(ctx, "tiny.notes_of", (author,))
        return rows


class NotesServlet(Servlet):
    def handle(self, ctx, request):
        facade = yield from ctx.lookup("NotesFacade")
        text = yield from facade.call(ctx, "read_note", request.param("note_id"))
        return Response(1_000, data={"text": text})


def tiny_application(read_mostly: bool = True) -> ApplicationDescriptor:
    app = ApplicationDescriptor(name="tiny")
    app.add_schema(
        TableSchema(
            "notes",
            [Column("id", INTEGER), Column("author", TEXT), Column("text", TEXT)],
            primary_key="id",
            indexes=["author"],
        )
    )
    app.add(
        ComponentDescriptor(
            name="Note",
            kind=ComponentKind.ENTITY,
            impl=NoteBean,
            table="notes",
            persistence=Persistence.CMP,
            remote_interface=False,
            read_mostly=(
                ReadMostlyDescriptor(refresh_mode=RefreshMode.PUSH) if read_mostly else None
            ),
        )
    )
    app.add(
        ComponentDescriptor(
            name="NotesFacade",
            kind=ComponentKind.STATELESS_SESSION,
            impl=NotesFacadeBean,
            remote_interface=True,
            edge_from_level=3,
            # Only consulted at level 6; levels 1-5 ignore the annotation.
            cached_methods=("notes_of", "read_note"),
        )
    )
    app.add(
        ComponentDescriptor(
            name="servlet.Notes",
            kind=ComponentKind.SERVLET,
            impl=NotesServlet,
            remote_interface=False,
            tx_attribute=TxAttribute.NOT_SUPPORTED,
        )
    )
    app.map_page("Notes", "servlet.Notes")
    app.add_query_cache(
        QueryCacheDescriptor(
            query_id="tiny.notes_of",
            sql="SELECT id, text FROM notes WHERE author = ?",
            invalidated_by=("notes",),
            refresh_mode=RefreshMode.PUSH,
            key_of_update=lambda event: (
                (event.state.get("author"),) if event.state else None
            ),
        )
    )
    app.validate()
    return app


def tiny_database() -> Database:
    database = Database("tiny")
    database.create_table(
        TableSchema(
            "notes",
            [Column("id", INTEGER), Column("author", TEXT), Column("text", TEXT)],
            primary_key="id",
            indexes=["author"],
        )
    )
    for note_id in range(1, NOTE_COUNT + 1):
        database.execute(
            "INSERT INTO notes (id, author, text) VALUES (?, ?, ?)",
            (note_id, f"author{note_id % 3}", f"note text {note_id}"),
        )
    return database


def tiny_system(
    level=PatternLevel.STATEFUL_CACHING,
    read_mostly: bool = True,
    with_spans: bool = False,
) -> "tuple[Environment, DeployedSystem]":
    """A fully deployed tiny application on the standard testbed."""
    env = Environment()
    testbed = build_testbed(env, TestbedConfig())
    trace = SpanRecorder() if with_spans else None
    system = distribute(
        env,
        testbed,
        tiny_application(read_mostly=read_mostly),
        PatternLevel(level),
        tiny_database(),
        trace=trace,
    )
    return env, system


def in_transaction(ctx, body):
    """Run ``body(inner_ctx)`` as a REQUIRED method's container would: in
    a fresh transaction, committed on success and rolled back on failure."""
    transaction = TransactionContext()
    inner = ctx.in_transaction(transaction)
    try:
        result = yield from body(inner)
    except BaseException:
        if transaction.state == "active":
            yield from transaction.rollback(inner)
        raise
    if transaction.state == "active":
        yield from transaction.commit(inner)
    return result


def run_process(env: Environment, generator):
    """Run ``generator`` to completion; returns its value."""
    process = env.process(generator)
    env.run()
    if not process.triggered:
        raise AssertionError("process did not finish")
    return process.value
