"""Applying committed log entries on a raft member's database copy.

A committed statement the engine rejects is counted in ``apply_errors``
and skipped, so a divergent copy never crashes the run.  Anything else
raised while applying is a simulator bug and must propagate.
"""

import random
from types import SimpleNamespace

import pytest

from repro.rdbms.cluster import ClusterStats, RaftGroup, RaftMember
from repro.rdbms.cluster.raft import LogEntry
from repro.rdbms.engine import Database
from repro.rdbms.schema import Column, TableSchema
from repro.rdbms.types import INTEGER
from repro.simnet.kernel import Environment


def _group_with_one_member():
    env = Environment()
    group = RaftGroup(env, None, "shard0", ClusterStats())
    database = Database("replica")
    database.create_table(
        TableSchema("items", [Column("id", INTEGER)], primary_key="id")
    )
    member = RaftMember(
        group,
        "db",
        SimpleNamespace(name="db"),
        database,
        SimpleNamespace(),
        random.Random(1),
    )
    group.add_member(member)
    return env, group, member


def _apply(env, group, member, batch):
    group.log.append(LogEntry(1, batch))
    env.process(group._apply(member, len(group.log)))
    env.run()


def test_a_statement_the_engine_rejects_is_counted_and_skipped():
    env, group, member = _group_with_one_member()
    _apply(env, group, member, [("INSERT INTO missing (id) VALUES (?)", (1,))])
    assert group.stats.apply_errors == 1
    assert member.applied_index == 1


def test_an_unrelated_exception_propagates(monkeypatch):
    env, group, member = _group_with_one_member()

    def broken(*args, **kwargs):
        raise TypeError("executor bug")

    monkeypatch.setattr(member.database, "execute", broken)
    with pytest.raises(TypeError, match="executor bug"):
        _apply(env, group, member, [("INSERT INTO items (id) VALUES (?)", (1,))])
    assert group.stats.apply_errors == 0
