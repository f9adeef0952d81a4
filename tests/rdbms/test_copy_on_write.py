"""Copy-on-write storage against a plain-dict model (hypothesis).

Storage never changes a stored row in place: an update stores a new
dict and keeps the old one as its undo image, and every read hands out
the stored dicts themselves.  Random inserts, updates and deletes, in
and out of transactions that commit or roll back, run against a few
databases at once — one populated by SQL and copies rebuilt from its
images — each beside a model that is a plain ``{key: row}`` dict.  After
every step:

* each database holds exactly its model's rows, in its model's order;
* every row object ever handed out (by a scan, a lookup, ``get``, a
  ``SELECT *`` or an image) still has the contents it had then;
* every index bucket is ``sorted`` of the keys holding its value, and
  the key order is ``sorted`` of all keys;

and a rollback puts back the very objects that were stored at
``begin``.  Writes to one copy show in no image and no other copy,
because each copy is checked against its own model.

Tier-1 runs a short example count; the long run is selected with
``pytest -m slow --hypothesis-seed=N`` on this file.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdbms.engine import Database
from repro.rdbms.schema import Column, TableSchema
from repro.rdbms.types import INTEGER, TEXT

KEYS = st.integers(min_value=0, max_value=12)
GROUPS = st.integers(min_value=0, max_value=3)
TAGS = st.sampled_from(["a", "b", "c"])
TARGETS = st.integers(min_value=0, max_value=3)  # which database an op hits

OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), TARGETS, KEYS, GROUPS, TAGS),
        st.tuples(st.just("update"), TARGETS, KEYS, GROUPS, TAGS),
        st.tuples(st.just("update_group"), TARGETS, GROUPS, st.integers(0, 99)),
        st.tuples(st.just("delete"), TARGETS, KEYS),
        st.tuples(st.just("begin"), TARGETS),
        st.tuples(st.just("commit")),
        st.tuples(st.just("rollback")),
        st.tuples(st.just("read"), TARGETS, KEYS, GROUPS, TAGS),
        st.tuples(st.just("copy"), TARGETS),
    ),
    max_size=40,
)


def _database() -> Database:
    database = Database("cow")
    database.create_table(
        TableSchema(
            "t",
            [
                Column("id", INTEGER),
                Column("grp", INTEGER),
                Column("tag", TEXT),
                Column("n", INTEGER, nullable=True),
            ],
            primary_key="id",
            indexes=["grp", "tag"],
        )
    )
    return database


class _Run:
    """The databases, their models and every row handed out so far."""

    def __init__(self):
        self.databases = [_database()]
        self.models = [{}]
        self.handed_out = []  # (row object, its contents when handed out)
        self.transaction = None  # (database index, transaction, model, rows)

    def hand_out(self, rows):
        self.handed_out.extend((row, dict(row)) for row in rows)

    def apply(self, operation):
        kind, *args = operation
        if kind in ("commit", "rollback"):
            return self.end(kind)
        at = args[0] % len(self.databases)
        database, model, table = self.databases[at], self.models[at], self.databases[at].table("t")
        transaction = None
        if self.transaction is not None and self.transaction[0] == at:
            transaction = self.transaction[1]
        if kind == "insert":
            key, grp, tag = args[1:]
            if key in model:
                return
            database.execute(
                "INSERT INTO t (id, grp, tag) VALUES (?, ?, ?)", (key, grp, tag), transaction
            )
            model[key] = {"id": key, "grp": grp, "tag": tag, "n": None}
        elif kind == "update":
            key, grp, tag = args[1:]
            database.execute(
                "UPDATE t SET grp = ?, tag = ? WHERE id = ?", (grp, tag, key), transaction
            )
            if key in model:
                model[key] = {**model[key], "grp": grp, "tag": tag}
        elif kind == "update_group":
            grp, n = args[1:]
            database.execute("UPDATE t SET n = ? WHERE grp = ?", (n, grp), transaction)
            for key, row in model.items():
                if row["grp"] == grp:
                    model[key] = {**row, "n": n}
        elif kind == "delete":
            # What rolling back an INSERT does; outside a transaction only,
            # since no undo entry records it.
            key = args[1]
            if transaction is None and key in model:
                table.delete(key)
                del model[key]
        elif kind == "begin":
            if self.transaction is None:
                stored = dict(table._rows)
                self.transaction = (at, database.begin(), dict(model), stored)
        elif kind == "read":
            key, grp, tag = args[1:]
            self.hand_out(table.scan())
            self.hand_out(table.index_lookup("grp", grp))
            self.hand_out(table.index_lookup("tag", tag))
            self.hand_out(table.index_lookup("id", key))
            self.hand_out(table.range_lookup(key, None))
            self.hand_out(row for row in [table.get(key)] if row is not None)
            self.hand_out(database.execute("SELECT * FROM t WHERE grp = ?", (grp,)).rows)
            self.hand_out(database.execute("SELECT * FROM t").rows)
        elif kind == "copy":
            if self.transaction is not None and self.transaction[0] == at:
                return  # an image is taken of committed state
            image = database.image()
            for _, rows in image.tables:
                self.hand_out(rows)
            self.databases.append(Database.from_image(image))
            self.models.append(dict(model))

    def end(self, kind):
        if self.transaction is None:
            return
        at, transaction, model, stored = self.transaction
        self.transaction = None
        if kind == "commit":
            transaction.commit()
            return
        transaction.rollback()
        self.models[at] = model
        rows = self.databases[at].table("t")._rows
        assert list(rows) == list(stored)
        assert all(rows[key] is row for key, row in stored.items()), "rollback copied a row"

    def check(self):
        for database, model in zip(self.databases, self.models):
            table = database.table("t")
            assert list(table._rows.items()) == list(model.items())
            for column, index in table._indexes.items():
                expected = {}
                for key, row in model.items():
                    expected.setdefault(row[column], []).append(key)
                assert index == {value: sorted(keys) for value, keys in expected.items()}
            assert table.key_order == sorted(model)
        for row, contents in self.handed_out:
            assert row == contents, "a handed-out row changed"


def check_copy_on_write(operations):
    run = _Run()
    for operation in operations:
        run.apply(operation)
        run.check()
    run.end("rollback")
    run.check()


test_storage_is_copy_on_write = settings(max_examples=60, deadline=None)(
    given(operations=OPERATIONS)(check_copy_on_write)
)


@pytest.mark.slow
def test_storage_is_copy_on_write_long_fuzz(request):
    """The same property over a few thousand examples, run only when
    asked for: ``pytest -m slow --hypothesis-seed=N`` on this file."""
    if "slow" not in request.config.getoption("-m"):
        pytest.skip("long fuzz: select it with -m slow")
    settings(max_examples=3000, deadline=None)(given(operations=OPERATIONS)(check_copy_on_write))()
