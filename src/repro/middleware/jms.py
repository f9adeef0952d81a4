"""JMS-style publish/subscribe messaging.

The provider lives on one node (the main server in the paper's §4.5
deployment).  Publishing to a topic is cheap and local for the
read-write tier; the provider then delivers a copy of the message to
every subscriber asynchronously — each delivery is its own simulated
process crossing the WAN, so the publisher never blocks on edge
round trips.  "This approach completely avoids the blocking problem and
its scalability is limited only by the messaging middleware."
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple, TYPE_CHECKING

from ..simnet.kernel import Event
from .context import InvocationContext
from .marshalling import sizeof
from .resilience import RETRYABLE_ERRORS, RmiTimeout, backoff_delay

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.metrics import MetricsRegistry
    from .server import AppServer

__all__ = ["Message", "Topic", "JmsProvider"]

_message_ids = itertools.count(1)


@dataclass
class Message:
    """A JMS message: opaque body plus delivery metadata."""

    topic: str
    body: Any
    published_at: float = 0.0
    id: int = field(default_factory=lambda: next(_message_ids))
    _wire_size: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def wire_size(self) -> int:
        """Headers plus body, sized on first use: the publish hop, every
        delivery and every redelivery send the same bytes."""
        if self._wire_size is None:
            self._wire_size = 64 + sizeof(self.body)
        return self._wire_size


class Topic:
    """A named topic with durable-enough subscriptions for this study."""

    def __init__(self, name: str):
        self.name = name
        # (subscriber AppServer, container) pairs.
        self.subscribers: List[Tuple[Any, Any]] = []
        self.published = 0
        self.delivered = 0

    def subscribe(self, server: Any, container: Any) -> None:
        self.subscribers.append((server, container))


class JmsProvider:
    """The messaging broker bound to a host node."""

    def __init__(self, host_server: "AppServer", metrics: Optional["MetricsRegistry"]):
        self.env = host_server.env
        self.host_server = host_server
        self.topics: Dict[str, Topic] = {}
        self.in_flight = 0
        self.delivery_latency_total = 0.0
        self.deliveries = 0
        # The cell's MetricsRegistry, or None: JMS is the one live
        # instrument, the rest is collected at the end of a run.
        self.metrics = metrics
        # Redelivery + dead-letter queue: a delivery that keeps hitting
        # transport faults is retried with backoff up to the cost
        # profile's budget, then parked here as (topic, message id,
        # subscriber) — the update is *dropped* and the subscriber's
        # replicas go stale until a later update lands.
        self.dead_letters: List[Tuple[str, int, str]] = []

    def topic(self, name: str) -> Topic:
        existing = self.topics.get(name)
        if existing is None:
            existing = Topic(name)
            self.topics[name] = existing
        return existing

    def publish(
        self, ctx: InvocationContext, topic_name: str, body: Any
    ) -> Generator[Event, Any, Message]:
        """Publish; returns once the broker has accepted the message.

        Deliveries to subscribers proceed in detached processes — the
        publisher does not wait for them.
        """
        topic = self.topic(topic_name)
        message = Message(topic=topic_name, body=body, published_at=ctx.env.now)
        publisher_node = ctx.server.node.name
        broker_node = self.host_server.node.name
        span = None if ctx.trace is None else ctx.start_span(
            "jms",
            f"publish {topic_name}",
            wide_area=ctx.server.is_wide_area(broker_node),
            target=topic_name,
            method="publish",
        )
        try:
            yield from ctx.cpu(ctx.costs.jms_publish_cpu)
            if publisher_node != broker_node:
                yield from ctx.server.network.transfer(
                    publisher_node, broker_node, message.wire_size(), kind="jms"
                )
        finally:
            ctx.finish_span(span)
        topic.published += 1
        if self.metrics is not None:
            self.metrics.histogram("jms.topic_depth").observe(self.in_flight)
        for subscriber_server, container in topic.subscribers:
            self.in_flight += 1
            self.env.process(
                self._deliver(
                    ctx,
                    message,
                    topic,
                    subscriber_server,
                    container,
                    parent_span_id=span.id if span is not None else None,
                ),
                name=f"jms-delivery-{message.id}-{subscriber_server.name}",
            )
        return message

    def _deliver(
        self,
        ctx: InvocationContext,
        message: Message,
        topic: Topic,
        subscriber_server: Any,
        container: Any,
        parent_span_id=None,
    ) -> Generator[Event, Any, None]:
        broker_node = self.host_server.node.name
        subscriber_node = subscriber_server.node.name
        # Deliveries are asynchronous: the span attaches to the *publish*
        # span explicitly so the causal tree survives the detached process.
        span = None if ctx.trace is None else ctx.start_span(
            "jms-delivery",
            f"deliver {topic.name}",
            node=subscriber_node,
            wide_area=self.host_server.is_wide_area(subscriber_node),
            target=topic.name,
            method="on_message",
            parent_id=parent_span_id,
        )
        costs = self.host_server.costs
        stats = self.host_server.resilience
        attempt = 0
        try:
            while True:
                attempt += 1
                try:
                    if broker_node != subscriber_node:
                        yield from self.host_server.network.transfer(
                            broker_node, subscriber_node, message.wire_size(), kind="jms"
                        )
                    delivery_ctx = ctx.at_server(subscriber_server)
                    if span is not None:
                        delivery_ctx.span_id = span.id  # fresh context; bind in place
                    yield from delivery_ctx.cpu(delivery_ctx.costs.mdb_dispatch_cpu)
                    yield from container.invoke(delivery_ctx, "on_message", (message,))
                    break
                except RETRYABLE_ERRORS + (RmiTimeout,):
                    # The subscriber missed an update: stale from the
                    # first failed attempt until something lands.
                    stats.mark_stale(subscriber_server.name, self.env.now)
                    if attempt > costs.jms_max_redeliveries:
                        self.dead_letters.append(
                            (topic.name, message.id, subscriber_server.name)
                        )
                        stats.jms_dead_lettered += 1
                        stats.dropped_updates += 1
                        return
                    stats.jms_redeliveries += 1
                    yield self.env.sleep(
                        backoff_delay(
                            costs.jms_redelivery_backoff_ms,
                            costs.rmi_backoff_cap_ms,
                            attempt,
                        )
                    )
            topic.delivered += 1
            self.deliveries += 1
            # A successful delivery ends any open staleness window.
            stats.mark_fresh(subscriber_server.name, self.env.now)
            lag = self.env.now - message.published_at
            self.delivery_latency_total += lag
            if self.metrics is not None:
                self.metrics.histogram("jms.delivery_lag_ms").observe(lag)
        finally:
            self.in_flight -= 1
            ctx.finish_span(span)

    def counters(self) -> Dict[str, int]:
        """Cumulative delivery counters, per topic too, by metric name."""
        counters = {"jms.deliveries": self.deliveries}
        for name in sorted(self.topics):
            topic = self.topics[name]
            counters[f"jms.topic.{name}.published"] = topic.published
            counters[f"jms.topic.{name}.delivered"] = topic.delivered
        return counters

    def mean_delivery_latency(self) -> float:
        if not self.deliveries:
            return 0.0
        return self.delivery_latency_total / self.deliveries
