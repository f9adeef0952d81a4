"""Base classes for application components (beans and servlets).

Business methods are written as generators taking an
:class:`~repro.middleware.context.InvocationContext` first:

    class CatalogBean(StatelessSessionBean):
        def get_product(self, ctx, product_id):
            item_home = yield from ctx.lookup("Item")
            ...
            return details

Plain (non-generator) methods are also accepted for trivial accessors —
a container resolves each method once (:func:`business_method`) and
then calls the function it found directly.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, Generator, Optional, Set, Tuple

__all__ = [
    "Bean",
    "StatelessSessionBean",
    "StatefulSessionBean",
    "EntityBean",
    "MessageDrivenBean",
    "Servlet",
    "business_method",
    "BeanError",
]


class BeanError(Exception):
    """Raised on bean protocol violations (missing method, bad state)."""


def business_method(cls: type, method: str) -> Tuple[Callable, bool]:
    """Resolve ``cls.method`` once: ``(function, is a generator function)``.

    Call it as ``function(instance, ctx, *args)``.  When it is not a
    generator function its result may still be a generator (a plain
    method handing back another method's), so callers test the result's
    class against ``types.GeneratorType``.  A missing or non-public name
    resolves to a function that raises the :class:`BeanError`: a container
    reaches a method only after its charges and inside its transaction,
    and the error keeps that place — and the counters it moves — on
    every call.
    """
    try:
        function = getattr(cls, method)
    except AttributeError:
        message = f"{cls.__name__} has no business method {method!r}"
    else:
        if not method.startswith("_"):
            return function, inspect.isgeneratorfunction(function)
        message = f"{method!r} is not a public business method"

    def refuse(*_args):
        raise BeanError(message)

    return refuse, False


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
