"""Deployment descriptors — standard and *extended* (section 5).

The standard part mirrors ejb-jar.xml: component kind, transaction
attribute, persistence type, remote/local interface exposure.  The
extended part is the paper's proposal: declarative read-mostly caching
(``ReadMostlyDescriptor``) and query caching (``QueryCacheDescriptor``)
that containers implement automatically, so "application deployers need
only declaratively express desired component behavior".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Tuple

from ..rdbms.schema import TableSchema

__all__ = [
    "ComponentKind",
    "TxAttribute",
    "Persistence",
    "UpdateMode",
    "RefreshMode",
    "ReadMostlyDescriptor",
    "QueryCacheDescriptor",
    "ComponentDescriptor",
    "ApplicationDescriptor",
    "DescriptorError",
]


class DescriptorError(Exception):
    """Raised for inconsistent descriptor definitions."""


class ComponentKind(Enum):
    STATELESS_SESSION = "stateless-session"
    STATEFUL_SESSION = "stateful-session"
    ENTITY = "entity"
    MESSAGE_DRIVEN = "message-driven"
    SERVLET = "servlet"


class TxAttribute(Enum):
    REQUIRED = "Required"
    REQUIRES_NEW = "RequiresNew"
    NOT_SUPPORTED = "NotSupported"
    SUPPORTS = "Supports"


class Persistence(Enum):
    BMP = "bean-managed"
    CMP = "container-managed"


class UpdateMode(Enum):
    """How updates reach edge replicas and caches (a placement policy's
    ``update_mode``; the deployment's update propagator holds it)."""

    SYNC = "synchronous"    # blocking push: zero staleness (§4.3)
    ASYNC = "asynchronous"  # JMS topic + MDB façade (§4.5)


class RefreshMode(Enum):
    """How a stale replica re-acquires state."""

    PUSH = "push"  # new state travels with the invalidation
    PULL = "pull"  # replica queries the remote façade on next use


@dataclass(frozen=True)
class ReadMostlyDescriptor:
    """Extended descriptor: deploy read-only replicas of an entity bean.

    Consistency knobs mirror the paper's configurations.
    """

    refresh_mode: RefreshMode = RefreshMode.PUSH


@dataclass(frozen=True)
class QueryCacheDescriptor:
    """Extended descriptor: cache one parameterized query at edge servers.

    ``invalidated_by`` lists the *tables* whose committed writes
    invalidate cached results — "operations that cause query result
    invalidations/updates should be specified as well" (§5).
    ``key_of_update`` maps an update event to the cache-entry parameter
    tuple it invalidates; returning None invalidates every entry of the
    query.
    """

    query_id: str
    sql: str
    invalidated_by: Tuple[str, ...] = ()
    refresh_mode: RefreshMode = RefreshMode.PULL
    # maps an update event to the cache key(s) it invalidates; None = all.
    key_of_update: Optional[Callable] = None


@dataclass
class ComponentDescriptor:
    """One component's deployment descriptor."""

    name: str
    kind: ComponentKind
    impl: type
    tx_attribute: TxAttribute = TxAttribute.REQUIRED
    remote_interface: bool = True
    local_interface: bool = True
    # -- entity-only fields ---------------------------------------------------
    table: Optional[str] = None
    persistence: Persistence = Persistence.CMP
    read_mostly: Optional[ReadMostlyDescriptor] = None
    # -- message-driven-only fields --------------------------------------------
    topic: Optional[str] = None
    # -- placement hint: pattern level at which this component is also
    #    deployed on edge servers (None = kind-based default) ---------------
    edge_from_level: Optional[int] = None
    # -- extended descriptor: business methods whose results edge
    #    containers may cache transaction-consistently (level 6).  Read/
    #    write table footprints are *not* declared here — they are derived
    #    automatically from the JDBC statements the method executes.
    cached_methods: Tuple[str, ...] = ()
    # -- the implementation used where the policy keeps this component on
    #    the main server only, next to the database (Pet Store's direct-
    #    JDBC catalog servlets, §4.2); None = ``impl`` everywhere.
    central_impl: Optional[type] = None

    def __post_init__(self):
        if self.kind == ComponentKind.ENTITY and self.table is None:
            raise DescriptorError(f"entity bean {self.name!r} needs a table")
        if self.kind != ComponentKind.ENTITY and self.table is not None:
            raise DescriptorError(f"non-entity {self.name!r} must not map a table")
        if self.kind == ComponentKind.MESSAGE_DRIVEN and self.topic is None:
            raise DescriptorError(f"message-driven bean {self.name!r} needs a topic")
        if self.read_mostly is not None and self.kind != ComponentKind.ENTITY:
            raise DescriptorError(f"read-mostly descriptor on non-entity {self.name!r}")
        if self.cached_methods and self.kind != ComponentKind.STATELESS_SESSION:
            raise DescriptorError(
                f"cached-methods annotation on non-stateless-session {self.name!r}"
            )
        if not self.remote_interface and not self.local_interface:
            raise DescriptorError(f"component {self.name!r} has no interface at all")

    @property
    def is_entity(self) -> bool:
        return self.kind == ComponentKind.ENTITY


@dataclass
class ApplicationDescriptor:
    """The whole application: components, schemas, query caches, pages."""

    name: str
    components: Dict[str, ComponentDescriptor] = field(default_factory=dict)
    schemas: Dict[str, TableSchema] = field(default_factory=dict)
    # All named aggregate queries (always available for central execution).
    queries: Dict[str, str] = field(default_factory=dict)  # query_id -> SQL
    # The subset of queries cached at edges (active from level 4).
    query_caches: Dict[str, QueryCacheDescriptor] = field(default_factory=dict)
    servlets: Dict[str, str] = field(default_factory=dict)  # page name -> component

    def add(self, descriptor: ComponentDescriptor) -> ComponentDescriptor:
        if descriptor.name in self.components:
            raise DescriptorError(f"duplicate component {descriptor.name!r}")
        self.components[descriptor.name] = descriptor
        return descriptor

    def add_schema(self, schema: TableSchema) -> None:
        if schema.name in self.schemas:
            raise DescriptorError(f"duplicate schema {schema.name!r}")
        self.schemas[schema.name] = schema

    def add_query_cache(self, descriptor: QueryCacheDescriptor) -> None:
        if descriptor.query_id in self.query_caches:
            raise DescriptorError(f"duplicate query cache {descriptor.query_id!r}")
        self.queries.setdefault(descriptor.query_id, descriptor.sql)
        self.query_caches[descriptor.query_id] = descriptor

    def map_page(self, page: str, servlet_component: str) -> None:
        if servlet_component not in self.components:
            raise DescriptorError(f"page {page!r} maps to unknown {servlet_component!r}")
        if self.components[servlet_component].kind != ComponentKind.SERVLET:
            raise DescriptorError(f"page {page!r} must map to a servlet")
        self.servlets[page] = servlet_component

    def entities(self) -> List[ComponentDescriptor]:
        return [c for c in self.components.values() if c.is_entity]

    def validate(self) -> None:
        """Cross-component consistency checks."""
        for descriptor in self.components.values():
            if descriptor.is_entity and descriptor.table not in self.schemas:
                raise DescriptorError(
                    f"entity {descriptor.name!r} maps missing table {descriptor.table!r}"
                )
        for page, servlet in self.servlets.items():
            if servlet not in self.components:
                raise DescriptorError(f"page {page!r} maps to unknown {servlet!r}")
