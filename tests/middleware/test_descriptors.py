"""Unit tests for deployment descriptors."""

import pytest

from repro.middleware.descriptors import (
    ApplicationDescriptor,
    ComponentDescriptor,
    ComponentKind,
    DescriptorError,
    QueryCacheDescriptor,
    ReadMostlyDescriptor,
)
from repro.middleware.ejb import EntityBean, Servlet, StatelessSessionBean
from repro.rdbms.schema import Column, TableSchema
from repro.rdbms.types import INTEGER


class _Bean(StatelessSessionBean):
    pass


class _Entity(EntityBean):
    pass


class _Servlet(Servlet):
    pass


def _entity_descriptor(**overrides):
    defaults = dict(
        name="E",
        kind=ComponentKind.ENTITY,
        impl=_Entity,
        table="t",
        remote_interface=False,
    )
    defaults.update(overrides)
    return ComponentDescriptor(**defaults)


def test_entity_requires_table():
    with pytest.raises(DescriptorError):
        ComponentDescriptor(name="E", kind=ComponentKind.ENTITY, impl=_Entity)


def test_non_entity_rejects_table():
    with pytest.raises(DescriptorError):
        ComponentDescriptor(
            name="S", kind=ComponentKind.STATELESS_SESSION, impl=_Bean, table="t"
        )


def test_mdb_requires_topic():
    with pytest.raises(DescriptorError):
        ComponentDescriptor(name="M", kind=ComponentKind.MESSAGE_DRIVEN, impl=_Bean)


def test_read_mostly_only_on_entities():
    with pytest.raises(DescriptorError):
        ComponentDescriptor(
            name="S",
            kind=ComponentKind.STATELESS_SESSION,
            impl=_Bean,
            read_mostly=ReadMostlyDescriptor(),
        )


def test_component_needs_some_interface():
    with pytest.raises(DescriptorError):
        ComponentDescriptor(
            name="S",
            kind=ComponentKind.STATELESS_SESSION,
            impl=_Bean,
            remote_interface=False,
            local_interface=False,
        )


def test_application_duplicate_component_rejected():
    app = ApplicationDescriptor(name="a")
    app.add(ComponentDescriptor("F", ComponentKind.STATELESS_SESSION, _Bean))
    with pytest.raises(DescriptorError):
        app.add(ComponentDescriptor("F", ComponentKind.STATELESS_SESSION, _Bean))


def test_application_page_mapping_requires_servlet():
    app = ApplicationDescriptor(name="a")
    app.add(ComponentDescriptor("F", ComponentKind.STATELESS_SESSION, _Bean))
    with pytest.raises(DescriptorError):
        app.map_page("Home", "F")
    with pytest.raises(DescriptorError):
        app.map_page("Home", "missing")


def test_application_validate_checks_entity_tables():
    app = ApplicationDescriptor(name="a")
    app.add(_entity_descriptor())
    with pytest.raises(DescriptorError):
        app.validate()  # schema "t" never registered
    app.add_schema(TableSchema("t", [Column("id", INTEGER)], primary_key="id"))
    app.validate()


def test_query_registration_and_cache():
    app = ApplicationDescriptor(name="a")
    app.add_query_cache(QueryCacheDescriptor(query_id="q2", sql="SELECT * FROM t"))
    assert "q2" in app.queries  # cache registration also registers the query
    with pytest.raises(DescriptorError):
        app.add_query_cache(QueryCacheDescriptor(query_id="q2", sql="SELECT * FROM t"))


def test_entities_listing():
    app = ApplicationDescriptor(name="a")
    app.add_schema(TableSchema("t", [Column("id", INTEGER)], primary_key="id"))
    app.add(_entity_descriptor())
    app.add(ComponentDescriptor("F", ComponentKind.STATELESS_SESSION, _Bean))
    assert [d.name for d in app.entities()] == ["E"]
