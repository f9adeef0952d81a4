"""The (read-write) entity bean container.

Reproduces the EJB entity lifecycle whose costs drive §4.3:

* activation loads the row (``ejbLoad`` = one JDBC SELECT);
* finders run queries; with BMP, ``findByPrimaryKey`` performs an extra
  existence-check SELECT (the paper removed this in its baseline), and
  each found bean still loads itself — the "n+1 database calls problem";
  with CMP 2.0 batching, the finder materializes rows directly;
* at commit, dirty instances write back (``ejbStore`` = one JDBC
  UPDATE); without the paper's optimization, even clean instances
  touched by a read-only transaction store themselves;
* committed writes generate :class:`~repro.middleware.context.UpdateEvent`
  records when the bean has read-only replicas to feed.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List

from ..simnet.kernel import Event
from .context import InvocationContext, TransactionContext, UpdateEvent
from .descriptors import ComponentDescriptor, ComponentKind, Persistence
from .ejb import BeanError, EntityBean
from .session import BaseContainer

__all__ = ["EntityContainer", "FinderSpec"]


class FinderSpec:
    """Declarative home finder: SQL template over the bean's table.

    Bean classes declare::

        FINDERS = {
            "find_by_category": FinderSpec(
                "SELECT * FROM items WHERE category_id = ?"),
        }

    A finder returns the list of primary keys found; with CMP row
    batching the fetched rows also pre-populate the transaction's
    instance cache, avoiding the per-bean reload.
    """

    def __init__(self, sql: str):
        self.sql = sql


class EntityContainer(BaseContainer):
    """Container for one read-write entity bean type.

    A call with an identity runs a business method of that entity,
    activated into the caller's transaction; a call without one runs a
    home method, with the container itself as the instance.
    """

    _transactional_instances = True

    def __init__(self, server: Any, descriptor: ComponentDescriptor):
        if descriptor.kind != ComponentKind.ENTITY:
            raise BeanError(f"{descriptor.name!r} is not an entity bean")
        super().__init__(server, descriptor)
        self._home_plans = server.plan_table()
        self._cache_key = ("entities", descriptor.name)
        self.schema = server.application.schemas[descriptor.table]
        self.loads = 0
        self.stores = 0
        self.skipped_stores = 0

    # -- transaction-scoped instance cache -------------------------------------
    def _cache(self, transaction: TransactionContext) -> Dict[Any, EntityBean]:
        if transaction.resources is None:
            transaction.resources = {}
        return transaction.resources.setdefault(self._cache_key, {})

    def _emits_update_events(self) -> bool:
        """Writes generate update events only when somebody consumes them:
        a read-mostly replica of this bean, or a query cache watching the
        bean's table."""
        if self.descriptor.read_mostly is not None:
            return True
        for cache in self.server.application.query_caches.values():
            if self.schema.name in cache.invalidated_by:
                return True
        return False

    # -- home methods -----------------------------------------------------------
    def _plan(self, method: str, plans: Dict[str, tuple], resolved: tuple = None) -> tuple:
        def home(container: "EntityContainer", ctx: InvocationContext, *args: Any):
            return container._run_home(ctx, method, args)

        return super()._plan(method, plans, None if plans is self._plans else (home, False))

    def _run_home(
        self, ctx: InvocationContext, method: str, args: tuple
    ) -> Generator[Event, Any, Any]:
        costs = ctx.costs
        if method == "find_by_primary_key":
            (primary_key,) = args
            if (
                self.descriptor.persistence == Persistence.BMP
                and costs.bmp_find_extra_db_call
            ):
                # The "excessive database call ... present in
                # ejbFindByPrimaryKey" that the paper's baseline removed.
                result = yield from self.server.db_execute(
                    ctx,
                    f"SELECT {self.schema.primary_key} FROM {self.schema.name} "
                    f"WHERE {self.schema.primary_key} = ?",
                    (primary_key,),
                )
                if not result.rows:
                    raise BeanError(f"{self.name}: no entity {primary_key!r}")
            return primary_key

        if method == "create":
            (values,) = args
            row = dict(values)
            ctx.transaction.mark_write()
            columns = ", ".join(row.keys())
            placeholders = ", ".join("?" for _ in row)
            yield from self.server.db_execute(
                ctx,
                f"INSERT INTO {self.schema.name} ({columns}) VALUES ({placeholders})",
                tuple(row.values()),
            )
            primary_key = row[self.schema.primary_key]
            instance = self._materialize(ctx, primary_key, self.schema.normalize_row(row))
            if self._emits_update_events():
                ctx.transaction.add_update_event(
                    UpdateEvent(
                        component=self.name,
                        table=self.schema.name,
                        primary_key=primary_key,
                        state=dict(instance.state),
                        inserted=True,
                    )
                )
            return primary_key

        # Custom declarative finder.
        spec = getattr(self.descriptor.impl, "FINDERS", {}).get(method)
        if spec is None:
            raise BeanError(f"entity {self.name!r} has no finder {method!r}")
        result = yield from self.server.db_execute(ctx, spec.sql, args)
        primary_keys: List[Any] = []
        pk_column = self.schema.primary_key
        for row in result.rows:
            key = row.get(pk_column)
            if key is None:  # qualified output from a join
                for column, value in row.items():
                    if column.endswith("." + pk_column):
                        key = value
                        break
            primary_keys.append(key)
            if ctx.costs.finder_loads_rows and set(row) >= set(self.schema.column_names()):
                # CMP batching: the finder's rows pre-populate instances.
                self._materialize(ctx, key, row)
        return primary_keys

    def _materialize(
        self, ctx: InvocationContext, primary_key: Any, row: Dict[str, Any]
    ) -> EntityBean:
        instance = self.descriptor.impl()
        instance.primary_key = primary_key
        instance.state = dict(row)
        self._cache(ctx.transaction)[primary_key] = instance
        ctx.transaction.enlist_entity(self, instance)
        return instance

    # -- activation -----------------------------------------------------------
    def _instance(self, ctx: InvocationContext, identity: Any) -> Any:
        if identity is None:
            return self  # a home method: the container is the instance
        resources = ctx.transaction.resources
        cache = resources.get(self._cache_key) if resources is not None else None
        return cache.get(identity) if cache is not None else None

    def _instance_wait(
        self, ctx: InvocationContext, primary_key: Any
    ) -> Generator[Event, Any, EntityBean]:
        """``ejbLoad``: one SELECT brings the row into the transaction."""
        result = yield from self.server.db_execute(
            ctx,
            f"SELECT * FROM {self.schema.name} WHERE {self.schema.primary_key} = ?",
            (primary_key,),
        )
        row = result.first()
        if row is None:
            raise BeanError(f"{self.name}: no entity with key {primary_key!r}")
        yield from ctx.cpu(ctx.costs.ejb_load_cpu)
        self.loads += 1
        return self._materialize(ctx, primary_key, row)

    # -- store / discard (called by TransactionContext) -------------------------
    def store_instance(
        self, ctx: InvocationContext, transaction: TransactionContext, instance: EntityBean
    ) -> Generator[Event, Any, None]:
        if not instance.is_dirty:
            if ctx.costs.store_on_read_only_tx:
                # Unoptimized ejbStore: write the full row back even though
                # nothing changed (the paper's baseline removed this).
                yield from ctx.cpu(ctx.costs.ejb_store_cpu)
                yield from self._write_row(ctx, instance, full=True)
                self.stores += 1
            else:
                self.skipped_stores += 1
            return
        if transaction.read_only:
            transaction.mark_write()
        yield from ctx.cpu(ctx.costs.ejb_store_cpu)
        yield from self._write_row(ctx, instance, full=False)
        self.stores += 1
        if self._emits_update_events():
            transaction.add_update_event(
                UpdateEvent(
                    component=self.name,
                    table=self.schema.name,
                    primary_key=instance.primary_key,
                    state=dict(instance.state),
                    changed_fields=instance.dirty_fields,
                )
            )
        instance.clear_dirty()

    def _write_row(
        self, ctx: InvocationContext, instance: EntityBean, full: bool
    ) -> Generator[Event, Any, None]:
        pk_column = self.schema.primary_key
        if full:
            fields = [c for c in self.schema.column_names() if c != pk_column]
        else:
            fields = [f for f in instance.dirty_fields if f != pk_column]
        if not fields:
            return
        assignments = ", ".join(f"{field} = ?" for field in fields)
        params = tuple(instance.state[field] for field in fields) + (instance.primary_key,)
        yield from self.server.db_execute(
            ctx,
            f"UPDATE {self.schema.name} SET {assignments} WHERE {pk_column} = ?",
            params,
        )

    def discard_instance(self, instance: EntityBean) -> None:
        instance.clear_dirty()
