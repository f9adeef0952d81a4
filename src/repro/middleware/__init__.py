"""J2EE-style component middleware: containers, RMI, JMS, web tier.

The subpackage layering (bottom up): costs/marshalling -> context ->
naming/rmi -> containers (session/entity/mdb/readonly) -> replication
(updates/querycache) -> web -> server.
"""

from .context import (
    ContainerTransactionError,
    InvocationContext,
    RequestInfo,
    TransactionContext,
    UpdateEvent,
)
from .costs import MiddlewareCosts
from .descriptors import (
    ApplicationDescriptor,
    ComponentDescriptor,
    ComponentKind,
    DescriptorError,
    Persistence,
    QueryCacheDescriptor,
    ReadMostlyDescriptor,
    RefreshMode,
    TxAttribute,
    UpdateMode,
)
from .ejb import (
    Bean,
    BeanError,
    EntityBean,
    MessageDrivenBean,
    Servlet,
    StatefulSessionBean,
    StatelessSessionBean,
)
from .entity import EntityContainer, FinderSpec
from .jms import JmsProvider, Message, Topic
from .marshalling import sizeof
from .mdb import MessageDrivenContainer
from .naming import HomeCache, NamingError
from .querycache import QueryCacheManager
from .readonly import ReadOnlyEntityContainer, ReadOnlyViolation
from .rmi import AccessError, BoundEntityRef, ComponentRef, LocalRef, RemoteRef
from .server import AppServer
from .session import StatefulSessionContainer, StatelessSessionContainer
from .updates import (
    UPDATE_SUBSCRIBER,
    UPDATE_TOPIC,
    UPDATER_FACADE,
    UpdatePayload,
    UpdatePropagator,
    UpdateSubscriberMdb,
    UpdaterFacadeBean,
    update_subscriber_descriptor,
    updater_facade_descriptor,
)
from .web import HttpSessionStore, Response, ServletContainer, WebRequest, http_get

__all__ = [
    "ContainerTransactionError",
    "InvocationContext",
    "RequestInfo",
    "TransactionContext",
    "UpdateEvent",
    "MiddlewareCosts",
    "ApplicationDescriptor",
    "ComponentDescriptor",
    "ComponentKind",
    "DescriptorError",
    "Persistence",
    "QueryCacheDescriptor",
    "ReadMostlyDescriptor",
    "RefreshMode",
    "TxAttribute",
    "UpdateMode",
    "Bean",
    "BeanError",
    "EntityBean",
    "MessageDrivenBean",
    "Servlet",
    "StatefulSessionBean",
    "StatelessSessionBean",
    "EntityContainer",
    "FinderSpec",
    "JmsProvider",
    "Message",
    "Topic",
    "sizeof",
    "MessageDrivenContainer",
    "HomeCache",
    "NamingError",
    "QueryCacheManager",
    "ReadOnlyEntityContainer",
    "ReadOnlyViolation",
    "AccessError",
    "BoundEntityRef",
    "ComponentRef",
    "LocalRef",
    "RemoteRef",
    "AppServer",
    "StatefulSessionContainer",
    "StatelessSessionContainer",
    "UPDATE_SUBSCRIBER",
    "UPDATE_TOPIC",
    "UPDATER_FACADE",
    "UpdatePayload",
    "UpdatePropagator",
    "UpdateSubscriberMdb",
    "UpdaterFacadeBean",
    "update_subscriber_descriptor",
    "updater_facade_descriptor",
    "HttpSessionStore",
    "Response",
    "ServletContainer",
    "WebRequest",
    "http_get",
]
