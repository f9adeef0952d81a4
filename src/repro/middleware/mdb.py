"""Message-driven bean container.

An MDB is the asynchronous flavour of the façade pattern (§5): it
consumes messages from a JMS topic and performs work under its own
container-managed transaction.  §4.5 uses an ``UpdateSubscriber`` MDB on
each edge server to apply pushed updates to read-only beans and query
caches.
"""

from __future__ import annotations

from typing import Any

from .context import InvocationContext
from .descriptors import ComponentDescriptor, ComponentKind
from .ejb import BeanError
from .session import BaseContainer

__all__ = ["MessageDrivenContainer"]


class MessageDrivenContainer(BaseContainer):
    """Container for one message-driven bean type: a single instance."""

    def __init__(self, server: Any, descriptor: ComponentDescriptor):
        if descriptor.kind != ComponentKind.MESSAGE_DRIVEN:
            raise BeanError(f"{descriptor.name!r} is not a message-driven bean")
        super().__init__(server, descriptor)
        self._bean = descriptor.impl()

    def invoke(self, ctx: InvocationContext, method: str, args: tuple, identity: Any = None):
        if method != "on_message":
            raise BeanError(
                f"message-driven bean {self.name!r} only accepts on_message, "
                f"got {method!r}"
            )
        return super().invoke(ctx, method, args, identity)

    def _instance(self, ctx: InvocationContext, identity: Any) -> Any:
        return self._bean
