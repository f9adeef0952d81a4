"""The SQL dialect is what the runs prepare, and no more.

``dialect.txt`` lists every SQL text the applications, their data
generators and the sharded data tier prepare, plus the range text of the
benchmark suite's rdbms micro.  Three checks pin it:

* a short run of both applications at every configuration level, an
  open-loop cell, a sharded and raft-replicated cell under a leader
  crash, and both data generators parse no text outside the file;
* every text in the file parses and executes on a populated database;
* each construct outside the dialect is refused at parse with
  :class:`~repro.rdbms.sql.SqlError`.
"""

from pathlib import Path

import pytest

from repro.apps.petstore import populate_petstore
from repro.apps.rubis import populate_rubis
from repro.core.policy import load_policy
from repro.experiments.calibration import default_workload
from repro.experiments.runner import run_configuration
from repro.faults.scenarios import scenario
from repro.rdbms import sql
from repro.rdbms.expressions import And, Between, Like, Or, Parameter
from repro.rdbms.lru import LruCache
from repro.rdbms.types import BOOLEAN, FLOAT, INTEGER, TEXT
from repro.simnet.rng import Streams
from repro.simnet.topology import TopologyOverrides
from repro.workload.openloop import OpenLoopConfig

ROOT = Path(__file__).resolve().parents[2]
DIALECT = [
    line for line in Path(__file__).with_name("dialect.txt").read_text().splitlines() if line
]


def _run_everything():
    populate_rubis(Streams(4101))
    populate_petstore(Streams(4101))
    workload = default_workload(duration_ms=12_000.0, warmup_ms=3_000.0)
    for app in ("petstore", "rubis"):
        for level in range(1, 7):
            run_configuration(app, level, workload=workload)
    run_configuration(
        "rubis",
        5,
        openloop=OpenLoopConfig(
            duration_ms=12_000.0, warmup_ms=3_000.0, session_rate_per_s=5.0
        ),
    )
    duration, warmup = 30_000.0, 6_000.0
    run_configuration(
        "rubis",
        5,
        workload=default_workload(duration_ms=duration, warmup_ms=warmup),
        seed=31,
        policy=load_policy(str(ROOT / "policies" / "sharded-replicated.json")),
        topology=TopologyOverrides(edges=3),
        faults=scenario(
            "db-leader-crash", duration, warmup, edges=("edge1", "edge2", "edge3")
        ),
    )


def test_the_runs_prepare_only_dialect_texts(monkeypatch):
    parsed = set()
    parse = sql.parse

    def recording_parse(text):
        parsed.add(text)
        return parse(text)

    # A fresh parse cache: every text the runs prepare is parsed here.
    monkeypatch.setattr(sql, "_PARSE_CACHE", LruCache(4096))
    monkeypatch.setattr(sql, "parse", recording_parse)
    _run_everything()
    assert len(parsed) >= 25
    assert parsed <= set(DIALECT), sorted(parsed - set(DIALECT))


@pytest.fixture(scope="module")
def databases():
    return [populate_rubis(Streams(4102))[0], populate_petstore(Streams(4102))[0]]


def _parameter_columns(statement):
    """``{parameter index: (column name, is a LIKE pattern)}``."""
    columns = {}

    def visit(condition):
        if isinstance(condition, (And, Or)):
            for part in condition.parts:
                visit(part)
            return
        name = condition.column.name.rpartition(".")[2]
        if isinstance(condition, Between):
            values = (condition.low, condition.high)
        else:
            values = (condition.pattern if isinstance(condition, Like) else condition.value,)
        for value in values:
            if isinstance(value, Parameter):
                columns[value.index] = (name, isinstance(condition, Like))

    pairs = []
    if isinstance(statement, sql.Insert):
        pairs = zip(statement.columns, statement.values)
    elif isinstance(statement, sql.Update):
        pairs = statement.assignments
    for column, value in pairs:
        if isinstance(value, Parameter):
            columns[value.index] = (column, False)
    if not isinstance(statement, sql.Insert) and statement.where is not None:
        visit(statement.where)
    return columns


# A value of each type, for a column of a table the generators leave empty.
_TYPICAL = {INTEGER: 1, FLOAT: 1.0, TEXT: "x", BOOLEAN: True}


def _tables(statement):
    return statement.tables() if isinstance(statement, sql.Select) else [statement.table]


def _params(database, statement):
    """Values of the right type for every ``?``: taken from a stored row, or
    a fresh primary key for an INSERT."""
    tables = [database.table(name) for name in _tables(statement)]
    params = []
    for index, (column, like) in sorted(_parameter_columns(statement).items()):
        if like:
            params.append("%e%")
            continue
        table = next(t for t in tables if column in t.schema.column_map)
        if isinstance(statement, sql.Insert) and column == table.schema.primary_key:
            text = table.schema.column(column).type == TEXT
            params.append("dialect-key" if text else max(table.key_order, default=0) + 1)
            continue
        row = next(iter(table.scan()), None)
        params.append(_TYPICAL[table.schema.column(column).type] if row is None else row[column])
    return tuple(params)


@pytest.mark.parametrize("text", DIALECT)
def test_every_dialect_text_parses_and_executes(databases, text):
    statement = sql.parse(text)
    database = next(
        db for db in databases if all(name in db.tables for name in _tables(statement))
    )
    result = database.execute(text, _params(database, statement))
    if isinstance(statement, sql.Select) and statement.columns:
        assert result.columns == list(statement.columns)
    elif not isinstance(statement, sql.Select):
        assert result.affected == 1, text


OUT_OF_DIALECT = {
    "DELETE": "DELETE FROM items WHERE id = ?",
    "GROUP BY": "SELECT category FROM items GROUP BY category",
    "ORDER BY": "SELECT id FROM items WHERE category = ? ORDER BY id",
    "LIMIT": "SELECT id FROM items LIMIT 5",
    "IN": "SELECT id FROM items WHERE id IN (1, 2)",
    "NOT": "SELECT id FROM items WHERE NOT id = 1",
    "NOT LIKE": "SELECT id FROM items WHERE name NOT LIKE ?",
    "parentheses": "SELECT id FROM items WHERE (id = 1 OR id = 2) AND category = 3",
    "INNER": "SELECT * FROM items INNER JOIN users u ON items.seller = u.id",
    "<": "SELECT id FROM items WHERE id < 5",
    ">": "SELECT id FROM items WHERE id > 5",
    "<=": "SELECT id FROM items WHERE id <= 5",
    "!=": "SELECT id FROM items WHERE id != 5",
    "<>": "SELECT id FROM items WHERE id <> 5",
    "second JOIN": (
        "SELECT * FROM bids b JOIN users u ON b.user_id = u.id "
        "JOIN items i ON b.item_id = i.id"
    ),
    "JOIN on <": "SELECT * FROM bids b JOIN users u ON b.user_id < u.id",
    "MAX": "SELECT MAX(bid) FROM bids",
    "MIN": "SELECT MIN(bid) FROM bids",
    "SUM": "SELECT SUM(bid) FROM bids",
    "AVG": "SELECT AVG(bid) FROM bids",
    "COUNT(col)": "SELECT COUNT(id) FROM bids",
    "COUNT with columns": "SELECT id, COUNT(*) FROM bids",
    "column alias": "SELECT name AS label FROM items",
    "AS table alias": "SELECT * FROM items AS i",
    "value on the left": "SELECT * FROM items WHERE ? = id",
    "column on the right": "SELECT * FROM items WHERE id = seller",
    "UPDATE without WHERE": "UPDATE items SET max_bid = ?",
    "INSERT ... SELECT": "INSERT INTO items (id) SELECT id FROM bids",
}


@pytest.mark.parametrize("construct", sorted(OUT_OF_DIALECT))
def test_out_of_dialect_construct_is_rejected(construct):
    with pytest.raises(sql.SqlError):
        sql.parse(OUT_OF_DIALECT[construct])
