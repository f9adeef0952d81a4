"""Base classes for application components (beans and servlets).

Business methods are written as generators taking an
:class:`~repro.middleware.context.InvocationContext` first:

    class CatalogBean(StatelessSessionBean):
        def get_product(self, ctx, product_id):
            item_home = yield from ctx.lookup("Item")
            ...
            return details

Plain (non-generator) methods are also accepted for trivial accessors —
containers detect and run both.
"""

from __future__ import annotations

import inspect
from functools import lru_cache
from typing import Any, Dict, Generator, Optional, Set

__all__ = [
    "Bean",
    "StatelessSessionBean",
    "StatefulSessionBean",
    "EntityBean",
    "MessageDrivenBean",
    "Servlet",
    "run_business_method",
    "BeanError",
]


class BeanError(Exception):
    """Raised on bean protocol violations (missing method, bad state)."""


@lru_cache(maxsize=None)
def _generator_business_method(cls: type, method: str) -> bool:
    """Check ``cls.method`` is a public business method, once per pair.

    True when it is a generator function (the common case), whose result
    needs no inspection.  Bounded by the deployed (bean class, method)
    pairs; a :class:`BeanError` is not cached and is raised on every call.
    """
    try:
        function = getattr(cls, method)
    except AttributeError:
        raise BeanError(f"{cls.__name__} has no business method {method!r}") from None
    if method.startswith("_"):
        raise BeanError(f"{method!r} is not a public business method")
    return inspect.isgeneratorfunction(function)


def run_business_method(instance: Any, method: str, ctx: Any, args: tuple):
    """Invoke ``instance.method(ctx, *args)`` supporting plain or generator form.

    Returns a generator in both cases so containers can uniformly
    ``yield from`` it.
    """
    generator_method = _generator_business_method(type(instance), method)
    result = getattr(instance, method)(ctx, *args)
    # Generators are returned as-is: wrapping them in another generator
    # just to ``yield from`` would add one interpreter frame to every
    # resume of every component call.
    if generator_method or inspect.isgenerator(result):
        return result
    return _plain_result(result)


def _plain_result(result: Any):
    """Lift a plain return value into the generator protocol."""
    return result
    yield  # pragma: no cover - keeps this a generator function


class Bean:
    """Marker base for all EJB implementations."""

    def ejb_create(self, ctx, *args) -> None:
        """Lifecycle hook called when the container instantiates the bean."""


class StatelessSessionBean(Bean):
    """No conversational state; instances are pooled and interchangeable."""


class StatefulSessionBean(Bean):
    """Holds per-client conversational state in ``self.state``."""

    def __init__(self):
        self.state: Dict[str, Any] = {}
        self.session_id: Optional[str] = None


class EntityBean(Bean):
    """Represents one row of shared persistent state.

    The container populates ``self.state`` from the database (``ejbLoad``)
    before business methods run and writes dirty fields back at
    transaction commit (``ejbStore``).  Use :meth:`set_field` so the
    container can track dirtiness and build update events.
    """

    def __init__(self):
        self.state: Dict[str, Any] = {}
        self.primary_key: Any = None
        self._dirty_fields: Set[str] = set()
        self._loaded = False

    # -- state access ---------------------------------------------------------
    def get_field(self, name: str) -> Any:
        if name not in self.state:
            raise BeanError(
                f"{type(self).__name__}[{self.primary_key!r}] has no field {name!r}"
            )
        return self.state[name]

    def set_field(self, name: str, value: Any) -> None:
        if name not in self.state:
            raise BeanError(
                f"{type(self).__name__}[{self.primary_key!r}] has no field {name!r}"
            )
        if self.state[name] != value:
            self.state[name] = value
            self._dirty_fields.add(name)

    @property
    def is_dirty(self) -> bool:
        return bool(self._dirty_fields)

    @property
    def dirty_fields(self) -> tuple:
        return tuple(sorted(self._dirty_fields))

    def clear_dirty(self) -> None:
        self._dirty_fields.clear()

    # -- default accessors ----------------------------------------------------
    def get_state(self, ctx) -> Dict[str, Any]:
        """Whole-row snapshot (a copy)."""
        return dict(self.state)


class MessageDrivenBean(Bean):
    """Asynchronous consumer: the container calls :meth:`on_message`."""

    def on_message(self, ctx, message) -> Generator:
        raise NotImplementedError
        yield  # pragma: no cover


class Servlet:
    """A web-tier component: one :meth:`handle` per HTTP request.

    ``handle`` returns a :class:`~repro.middleware.web.Response`.
    """

    def handle(self, ctx, request) -> Generator:
        raise NotImplementedError
        yield  # pragma: no cover
